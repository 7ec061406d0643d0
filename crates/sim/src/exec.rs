//! The SPMD executor: runs a compiled program on `P` simulated ranks with
//! logical-clock message timing.
//!
//! Each rank is a thread with a full-size copy of every array (only the
//! owned region plus received halo elements are meaningful), connected by
//! FIFO channels. Simulated time uses an α/β model: a receive completes at
//! `max(t_local, t_send + α + bytes·β)`.

use crate::interp::{Fault, Frame, SimError};
use crate::lower::{At, Exec, Lower, Range, Symbols};
use crate::machine::MachineModel;
use crate::store::Array;
use dhpf_codegen::{Code, Slot, SlotCode, Slots, Stride};
use dhpf_core::driver::Compiled;
use dhpf_core::ir::ReduceOp;
use dhpf_core::spmd::{NestOp, SpmdItem, SpmdProgram};
use dhpf_core::ProcCoord;
use dhpf_hpf::Analysis;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// A message between ranks: event tag, send timestamp, payload.
#[derive(Clone, Debug)]
struct Message {
    tag: usize,
    t_send: f64,
    values: Vec<f64>,
}

/// Per-rank communication activity: message/byte counts split by
/// direction, and the in-place vs buffered transfer mix (contiguous
/// messages skip the pack/unpack copy — the paper's §5 in-place receives).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankComm {
    /// Messages this rank sent.
    pub sent_messages: u64,
    /// Messages this rank received.
    pub recv_messages: u64,
    /// Payload bytes this rank sent.
    pub sent_bytes: u64,
    /// Payload bytes this rank received.
    pub recv_bytes: u64,
    /// Sends of contiguous regions (no pack copy).
    pub inplace_sends: u64,
    /// Sends that packed a strided region into a buffer.
    pub buffered_sends: u64,
    /// Receives landing directly in place (contiguous target).
    pub inplace_recvs: u64,
    /// Receives unpacked element-by-element from a buffer.
    pub buffered_recvs: u64,
}

/// Result of a simulated run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Maximum logical completion time over all ranks (seconds).
    pub time: f64,
    /// Per-rank completion times.
    pub rank_times: Vec<f64>,
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Per-rank communication activity (indexed by rank).
    pub comm: Vec<RankComm>,
    /// Final scalar values (identical on all ranks; taken from rank 0).
    pub floats: HashMap<String, f64>,
    /// Final integer scalars from rank 0.
    pub ints: HashMap<String, i64>,
    /// Global arrays gathered from each rank's owned region.
    pub arrays: HashMap<String, Array>,
}

/// Runs `compiled` on a processor grid with `counts[d]` processors in
/// dimension `d`.
///
/// # Errors
///
/// Returns [`SimError`] for unsupported grid kinds (fully cyclic virtual
/// processors), missing inputs, or internal communication mismatches.
///
/// # Panics
///
/// Panics if `counts.len()` does not match the program's processor rank, or
/// if a fixed dimension's count disagrees with the program.
pub fn simulate(
    compiled: &Compiled,
    counts: &[i64],
    inputs: &HashMap<String, i64>,
    machine: &MachineModel,
) -> Result<SimResult, SimError> {
    simulate_with(compiled, counts, inputs, machine, None)
}

/// [`simulate`], optionally recording a `"simulate"` span with aggregate
/// and per-rank communication counters on `trace`. Rank threads never
/// touch the collector: counters are aggregated from the per-rank results
/// on the calling thread, so tracing cannot perturb message timing.
///
/// # Errors
///
/// Same as [`simulate`].
///
/// # Panics
///
/// Same as [`simulate`].
pub fn simulate_with(
    compiled: &Compiled,
    counts: &[i64],
    inputs: &HashMap<String, i64>,
    machine: &MachineModel,
    trace: Option<&dhpf_obs::Collector>,
) -> Result<SimResult, SimError> {
    let span = trace.map(|c| c.begin("simulate", "simulate"));
    let out = simulate_inner(compiled, counts, inputs, machine);
    if let (Some(c), Some(id)) = (trace, span) {
        if let Ok(r) = &out {
            c.counter_on(id, "messages", r.messages as i64);
            c.counter_on(id, "payload bytes", r.bytes as i64);
            let inplace: u64 = r.comm.iter().map(|rc| rc.inplace_sends).sum();
            let buffered: u64 = r.comm.iter().map(|rc| rc.buffered_sends).sum();
            c.counter_on(id, "inplace transfers", inplace as i64);
            c.counter_on(id, "buffered transfers", buffered as i64);
            for (k, rc) in r.comm.iter().enumerate() {
                c.counter_on(id, &format!("rank{k} sent msgs"), rc.sent_messages as i64);
                c.counter_on(id, &format!("rank{k} sent bytes"), rc.sent_bytes as i64);
            }
        }
        c.end(id);
    }
    out
}

fn simulate_inner(
    compiled: &Compiled,
    counts: &[i64],
    inputs: &HashMap<String, i64>,
    machine: &MachineModel,
) -> Result<SimResult, SimError> {
    let program = &compiled.program;
    assert_eq!(
        counts.len(),
        program.proc_dims.len(),
        "processor grid rank mismatch"
    );
    for (d, spec) in program.proc_dims.iter().enumerate() {
        if let ProcCoord::Physical { count } = &spec.coord {
            assert_eq!(
                *count, counts[d],
                "dimension {d} is fixed at {count} processors"
            );
        }
        if matches!(
            spec.coord,
            ProcCoord::CyclicVp { .. } | ProcCoord::CyclicKVp { .. }
        ) {
            return Err(SimError::Unsupported(
                "executor does not run cyclic virtual-processor grids".into(),
            ));
        }
    }
    let nranks: usize = counts.iter().product::<i64>() as usize;
    let plan = Arc::new(Plan::new(program, &compiled.analysis, counts, inputs)?);
    // Mailboxes: one FIFO channel per (src, dst) pair; sends[src][dst],
    // receivers[dst][src].
    let mut sends: Vec<Vec<Sender<Message>>> = (0..nranks).map(|_| Vec::new()).collect();
    let mut receivers: Vec<Vec<Option<Receiver<Message>>>> = (0..nranks)
        .map(|_| (0..nranks).map(|_| None).collect())
        .collect();
    for src in 0..nranks {
        for dst_row in receivers.iter_mut() {
            let (s, r) = channel::<Message>();
            sends[src].push(s);
            dst_row[src] = Some(r);
        }
    }

    let machine = *machine;
    let mut handles = Vec::new();
    for rank in 0..nranks {
        let plan = Arc::clone(&plan);
        let counts = counts.to_vec();
        let to_others: Vec<Sender<Message>> = sends[rank].clone();
        let from_others: Vec<Receiver<Message>> = receivers[rank]
            .iter_mut()
            .map(|r| r.take().expect("receiver"))
            .collect();
        handles.push(std::thread::spawn(move || {
            run_rank(rank, &counts, &plan, &machine, &to_others, &from_others).map_err(|e| *e)
        }));
    }
    // Join all ranks first: a rank failing early closes its channels and
    // makes peers fail with secondary "closed channel" errors; report the
    // most informative (non-secondary) error.
    let results: Vec<Result<RankOut, SimError>> = handles
        .into_iter()
        .enumerate()
        .map(|(rank, h)| {
            h.join().unwrap_or_else(|_| {
                Err(SimError::Unsupported(format!(
                    "rank {rank} panicked during simulation"
                )))
            })
        })
        .collect();
    if results.iter().any(Result::is_err) {
        let mut errs: Vec<SimError> = results.into_iter().filter_map(Result::err).collect();
        errs.sort_by_key(|e| match e {
            SimError::CommMismatch(m) if m.contains("closed channel") => 1,
            _ => 0,
        });
        return Err(errs.remove(0));
    }
    let mut outs: Vec<RankOut> = results.into_iter().map(Result::unwrap).collect();
    let rank_times: Vec<f64> = outs.iter().map(|o| o.time).collect();
    let comm: Vec<RankComm> = outs.iter().map(|o| o.comm).collect();
    // Scalars are identical on every rank; take rank 0's, and its arrays as
    // the global ones, then overlay every other rank's owned region.
    let (floats, ints) = outs[0].frame.scalars();
    let mut arrays = std::mem::take(&mut outs[0].frame.arrays);
    for out in &mut outs[1..] {
        for owned in &plan.owned {
            let (src, dst) = (owned.elem.array, &mut arrays[owned.elem.array].data);
            owned
                .code
                .run(&mut out.frame, &mut |_, f: &mut Frame| {
                    let off = owned.elem.offset(f)?;
                    dst[off] = f.arrays[src].data[off];
                    Ok(())
                })
                .map_err(|h| *out.frame.halted(h))?;
        }
    }
    let time = rank_times.iter().cloned().fold(0.0, f64::max);
    Ok(SimResult {
        time,
        rank_times,
        messages: comm.iter().map(|c| c.sent_messages).sum(),
        bytes: comm.iter().map(|c| c.sent_bytes).sum(),
        comm,
        floats,
        ints,
        arrays: plan.base.syms.arrays.iter().cloned().zip(arrays).collect(),
    })
}

/// The program every rank runs, compiled once per [`simulate`] call: names
/// are slots, arrays are handles, statements are closures over the array
/// bounds, and each event's maps are lowered code.
struct Plan {
    items: Vec<Item>,
    events: Vec<Event>,
    /// Owned-region enumeration of each distributed array.
    owned: Vec<Owned>,
    /// The frame every rank starts from: every scalar and grid parameter
    /// bound except the rank's own position, and no arrays.
    base: Frame,
    /// Array bounds by handle; each rank allocates its own arrays.
    dims: Vec<Vec<(i64, i64)>>,
    /// Per grid dimension: the position slot (`m<d>`) and, for a
    /// virtual-processor dimension, its block size.
    position: Vec<(Slot, Option<i64>)>,
}

enum Item {
    /// A statement replicated on every rank.
    Serial(Exec),
    /// A replicated loop.
    SerialLoop {
        var: Slot,
        range: Range,
        body: Vec<Item>,
    },
    Nest(Nest),
}

struct Nest {
    /// `Stmt(id)` indexes `ops`.
    code: SlotCode,
    ops: Vec<Op>,
    /// Accumulator slot and combining operation of each reduction.
    reductions: Vec<(Slot, ReduceOp)>,
}

enum Op {
    /// A guarded assignment instance.
    Assign(Exec),
    Send(usize),
    Recv(usize),
}

/// A communication event with its maps lowered over `[q1..qr, d1..dk]`.
struct Event {
    id: usize,
    send: SlotCode,
    recv: SlotCode,
    /// One entry per processor dimension of the maps.
    partner: Vec<PartnerDim>,
    /// The element the `d<k>` slots name.
    elem: At,
    contiguous: bool,
}

/// How a `q<d>` value names a physical processor coordinate.
struct PartnerDim {
    q: Slot,
    /// Block-size slot of a virtual-processor dimension: VP `v` is
    /// processor `(v - 1) / B`, and only `v ≡ 1 (mod B)` is a real one.
    block: Option<Slot>,
    count: i64,
}

struct Owned {
    code: SlotCode,
    /// The element the `d<k>` slots name.
    elem: At,
}

/// `code` with each perfect loop nest whose bounds mention none of the
/// nest's own variables reversed. An owned-region nest is generated with
/// `d1` outermost, so reversed, the first subscript's loop runs innermost:
/// the column-major order arrays are stored in. It visits the same
/// elements either way.
fn column_major(code: &Code) -> Code {
    match code {
        Code::Seq(cs) => Code::Seq(cs.iter().map(column_major).collect()),
        Code::If { cond, body } => Code::If {
            cond: cond.clone(),
            body: Box::new(column_major(body)),
        },
        Code::Loop { .. } => {
            let mut loops = Vec::new();
            let mut inner = code;
            while let Code::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } = inner
            {
                loops.push((var, lo, hi, *step));
                inner = body;
            }
            let free = loops.iter().all(|(_, lo, hi, _)| {
                loops
                    .iter()
                    .all(|(v, ..)| !lo.mentions(v) && !hi.mentions(v))
            });
            if !free || !matches!(inner, Code::Stmt(_)) {
                return code.clone();
            }
            loops
                .into_iter()
                .fold(inner.clone(), |body, (var, lo, hi, step)| Code::Loop {
                    var: var.clone(),
                    lo: lo.clone(),
                    hi: hi.clone(),
                    step,
                    body: Box::new(body),
                })
        }
        Code::Stmt(_) | Code::Comment(_) => code.clone(),
    }
}

impl Plan {
    fn new(
        program: &SpmdProgram,
        analysis: &Analysis,
        counts: &[i64],
        inputs: &HashMap<String, i64>,
    ) -> Result<Plan, SimError> {
        let mut lower = Lower::new(analysis, inputs)?;
        let syms = &mut lower.syms;
        let nprocs = syms.slot("number_of_processors");
        // Grid parameters: `np<d>`, `m<d>`, and a VP dimension's block size
        // and processor count.
        let mut grid = Vec::new();
        for (d, spec) in program.proc_dims.iter().enumerate() {
            let np = syms.slot(&format!("np{}", d + 1));
            let m = syms.slot(&format!("m{}", d + 1));
            let vp = match &spec.coord {
                ProcCoord::Physical { .. } => None,
                ProcCoord::BlockVp { bsize, nproc } => Some((syms.slot(bsize), syms.slot(nproc))),
                _ => unreachable!("rejected before lowering"),
            };
            grid.push((np, m, vp));
        }
        let items = lower_items(&program.items, &mut lower);
        // The §4.2/Figure 6 loop rewrite: a partner loop over a VP
        // dimension steps by the block size from the first real VP.
        let vp_strides: HashMap<String, Stride> = grid
            .iter()
            .enumerate()
            .filter_map(|(d, &(_, _, vp))| {
                vp.map(|(bsize, _)| {
                    let stride = Stride {
                        step: bsize,
                        residue: 1,
                    };
                    (format!("q{}", d + 1), stride)
                })
            })
            .collect();
        let mut events = Vec::with_capacity(program.events.len());
        for ev in &program.events {
            let array = lower
                .syms
                .array(&ev.array)
                .ok_or_else(|| SimError::Unbound(ev.array.clone()))?;
            let lower_map = |code: &Code, syms: &mut Symbols| {
                code.lower(&mut |n| syms.slot(n), &|v| vp_strides.get(v).copied())
            };
            events.push(Event {
                id: ev.id,
                send: lower_map(&ev.send_code, &mut lower.syms),
                recv: lower_map(&ev.recv_code, &mut lower.syms),
                partner: (0..ev.proc_rank as usize)
                    .map(|d| PartnerDim {
                        q: lower.syms.slot(&format!("q{}", d + 1)),
                        block: grid[d].2.map(|(bsize, _)| bsize),
                        count: counts[d],
                    })
                    .collect(),
                elem: lower.slot_element(array, ev.data_rank),
                contiguous: ev.contiguous,
            });
        }
        let mut owned = Vec::new();
        for (name, spec) in &program.arrays {
            if let (Some(code), Some(array)) = (&spec.owned_code, lower.syms.array(name)) {
                owned.push(Owned {
                    code: column_major(code).lower(&mut |n| lower.syms.slot(n), &|_| None),
                    elem: lower.slot_element(array, spec.dims.len() as u32),
                });
            }
        }
        let Lower { syms, dims } = lower;
        let mut base = Frame::new(Arc::new(syms), analysis, inputs);
        base.ints[nprocs] = Some(counts.iter().product());
        let mut position = Vec::new();
        for (d, (spec, &(np, m, vp))) in program.proc_dims.iter().zip(&grid).enumerate() {
            base.ints[np] = Some(counts[d]);
            let block = match vp {
                None => None,
                Some((bsize, nproc)) => {
                    let extent = spec
                        .extent
                        .as_ref()
                        .ok_or_else(|| SimError::Unbound("template extent".into()))?;
                    let n = base.affine(extent)?;
                    let bs = (n + counts[d] - 1) / counts[d];
                    base.ints[bsize] = Some(bs);
                    base.ints[nproc] = Some(counts[d]);
                    Some(bs)
                }
            };
            position.push((m, block));
        }
        Ok(Plan {
            items,
            events,
            owned,
            base,
            dims,
            position,
        })
    }
}

fn lower_items(items: &[SpmdItem], lower: &mut Lower) -> Vec<Item> {
    items
        .iter()
        .map(|item| match item {
            SpmdItem::Serial(stmt) => Item::Serial(lower.stmt(stmt)),
            SpmdItem::SerialLoop {
                var,
                lo,
                hi,
                step,
                body,
            } => Item::SerialLoop {
                var: lower.syms.slot(var),
                range: lower.range(lo, hi, step.as_ref()),
                body: lower_items(body, lower),
            },
            SpmdItem::Nest(nest) => Item::Nest(Nest {
                code: nest.code.lower(&mut |n| lower.syms.slot(n), &|_| None),
                ops: nest
                    .ops
                    .iter()
                    .map(|op| match op {
                        NestOp::Assign(cs) => {
                            let assign = lower.assign(&cs.lhs, &cs.subs, &cs.rhs, cs.cost);
                            Op::Assign(lower.guarded(&cs.guards, assign))
                        }
                        NestOp::CommSend(ev) => Op::Send(*ev),
                        NestOp::CommRecv(ev) => Op::Recv(*ev),
                    })
                    .collect(),
                reductions: nest
                    .reductions
                    .iter()
                    .map(|r| (lower.syms.slot(&r.scalar), r.op))
                    .collect(),
            }),
        })
        .collect()
}

struct RankOut {
    time: f64,
    comm: RankComm,
    frame: Frame,
}

struct Rank<'a> {
    rank: usize,
    plan: &'a Plan,
    machine: &'a MachineModel,
    to: &'a [Sender<Message>],
    from: &'a [Receiver<Message>],
    frame: Frame,
    clock: f64,
    comm: RankComm,
    /// Per partner rank: the column-major offset of each element the
    /// current comm map enumerated for it.
    buckets: Vec<Vec<usize>>,
}

impl Slots for Rank<'_> {
    fn slots(&self) -> &[Option<i64>] {
        &self.frame.ints
    }

    fn slots_mut(&mut self) -> &mut [Option<i64>] {
        &mut self.frame.ints
    }
}

fn run_rank(
    rank: usize,
    counts: &[i64],
    plan: &Plan,
    machine: &MachineModel,
    to: &[Sender<Message>],
    from: &[Receiver<Message>],
) -> Result<RankOut, Fault> {
    let mut frame = plan.base.clone();
    frame.arrays = plan.dims.iter().cloned().map(Array::new).collect();
    // Coordinates are row-major, last dimension fastest.
    let mut rem = rank as i64;
    for d in (0..counts.len()).rev() {
        let (m, block) = plan.position[d];
        let c = rem % counts[d];
        rem /= counts[d];
        frame.ints[m] = Some(match block {
            None => c,
            Some(bs) => bs * c + 1,
        });
    }
    let mut r = Rank {
        rank,
        plan,
        machine,
        to,
        from,
        frame,
        clock: 0.0,
        comm: RankComm::default(),
        buckets: vec![Vec::new(); to.len()],
    };
    r.run_items(&plan.items)?;
    Ok(RankOut {
        time: r.clock,
        comm: r.comm,
        frame: r.frame,
    })
}

impl<'a> Rank<'a> {
    fn run_items(&mut self, items: &'a [Item]) -> Result<(), Fault> {
        for item in items {
            match item {
                Item::Serial(stmt) => self.exec(stmt)?,
                Item::SerialLoop { var, range, body } => {
                    for x in range.eval(&self.frame)? {
                        self.frame.ints[*var] = Some(x);
                        self.run_items(body)?;
                    }
                }
                Item::Nest(nest) => {
                    // Snapshot reduction accumulators.
                    let snaps: Vec<f64> = nest
                        .reductions
                        .iter()
                        .map(|&(s, _)| self.frame.floats[s].unwrap_or(0.0))
                        .collect();
                    nest.code
                        .run(self, &mut |id, r: &mut Rank<'a>| r.run_op(&nest.ops[id.0]))
                        .map_err(|h| self.frame.halted(h))?;
                    for (&(s, op), baseline) in nest.reductions.iter().zip(snaps) {
                        let mine = self.frame.floats[s].unwrap_or(0.0);
                        let combined = self.allreduce(op, mine, baseline)?;
                        self.frame.floats[s] = Some(combined);
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs a compiled statement, advancing the clock by its flops.
    fn exec(&mut self, stmt: &Exec) -> Result<(), Fault> {
        let mut flops = 0u64;
        stmt(&mut self.frame, &mut flops)?;
        self.clock += flops as f64 * self.machine.flop;
        Ok(())
    }

    /// Executes one nest operation at the current loop indices.
    fn run_op(&mut self, op: &Op) -> Result<(), Fault> {
        match op {
            Op::Assign(assign) => self.exec(assign),
            Op::Send(ev) => self.comm_send(&self.plan.events[*ev]),
            Op::Recv(ev) => self.comm_recv(&self.plan.events[*ev]),
        }
    }

    /// Runs a comm map's code, bucketing each enumerated element by
    /// partner rank. The map's code is a cover: it may visit an element
    /// more than once (once per overlapping piece). [`into_element_set`]
    /// turns a bucket into the sorted, deduplicated set of elements, in
    /// memory (column-major) order: the payload both sides of a message
    /// agree on, since every rank lays its arrays out alike, independent
    /// of how the map's code is split into loop nests.
    ///
    /// Partner (`q*`) loops over virtual-processor dimensions were lowered
    /// with the block size as their stride, so only *real* VPs are
    /// visited; a safety filter still skips any fictitious VP that would
    /// slip through.
    fn enumerate_comm(&mut self, ev: &'a Event, code: &'a SlotCode) -> Result<(), Fault> {
        for b in &mut self.buckets {
            b.clear();
        }
        code.run(self, &mut |_, r: &mut Rank<'a>| r.comm_leaf(ev))
            .map_err(|h| self.frame.halted(h))
    }

    fn comm_leaf(&mut self, ev: &Event) -> Result<(), Fault> {
        let f = &self.frame;
        let mut partner = 0i64;
        for p in &ev.partner {
            let q = f.ints[p.q].ok_or_else(|| f.unbound(p.q))?;
            let c = match p.block {
                None => q,
                Some(b) => {
                    let bs = f.ints[b].ok_or_else(|| f.unbound(b))?;
                    if (q - 1).rem_euclid(bs) != 0 {
                        return Ok(()); // fictitious VP
                    }
                    (q - 1) / bs
                }
            };
            if c < 0 || c >= p.count {
                return Ok(()); // outside the physical grid
            }
            partner = partner * p.count + c;
        }
        let off = ev.elem.offset(f)?;
        self.buckets[partner as usize].push(off);
        Ok(())
    }

    fn comm_send(&mut self, ev: &'a Event) -> Result<(), Fault> {
        self.enumerate_comm(ev, &ev.send)?;
        for partner in 0..self.buckets.len() {
            if partner == self.rank || self.buckets[partner].is_empty() {
                continue;
            }
            let bucket = &mut self.buckets[partner];
            into_element_set(bucket);
            let data = &self.frame.arrays[ev.elem.array].data;
            let values: Vec<f64> = bucket.iter().map(|&off| data[off]).collect();
            let nbytes = (values.len() * 8) as u64;
            if ev.contiguous {
                self.comm.inplace_sends += 1;
            } else {
                self.clock += values.len() as f64 * self.machine.copy;
                self.comm.buffered_sends += 1;
            }
            self.clock += self.machine.overhead;
            self.comm.sent_messages += 1;
            self.comm.sent_bytes += nbytes;
            self.to[partner]
                .send(Message {
                    tag: ev.id,
                    t_send: self.clock,
                    values,
                })
                .map_err(|_| Box::new(SimError::CommMismatch("send on closed channel".into())))?;
        }
        Ok(())
    }

    fn comm_recv(&mut self, ev: &'a Event) -> Result<(), Fault> {
        self.enumerate_comm(ev, &ev.recv)?;
        for partner in 0..self.buckets.len() {
            if partner == self.rank || self.buckets[partner].is_empty() {
                continue;
            }
            let msg = self.from[partner]
                .recv()
                .map_err(|_| Box::new(SimError::CommMismatch("recv on closed channel".into())))?;
            let bucket = &mut self.buckets[partner];
            into_element_set(bucket);
            if msg.tag != ev.id || msg.values.len() != bucket.len() {
                return Err(Box::new(SimError::CommMismatch(format!(
                    "rank {} expected event {} ({} elems) from {}, got event {} ({} elems)",
                    self.rank,
                    ev.id,
                    bucket.len(),
                    partner,
                    msg.tag,
                    msg.values.len()
                ))));
            }
            let nbytes = (msg.values.len() * 8) as u64;
            self.clock = self
                .clock
                .max(msg.t_send + self.machine.transfer_time(nbytes));
            if ev.contiguous {
                self.comm.inplace_recvs += 1;
            } else {
                self.clock += msg.values.len() as f64 * self.machine.copy;
                self.comm.buffered_recvs += 1;
            }
            self.comm.recv_messages += 1;
            self.comm.recv_bytes += nbytes;
            let data = &mut self.frame.arrays[ev.elem.array].data;
            for (&off, v) in bucket.iter().zip(&msg.values) {
                data[off] = *v;
            }
        }
        Ok(())
    }

    /// Combines a reduction across all ranks (star topology via rank 0).
    fn allreduce(&mut self, op: ReduceOp, mine: f64, baseline: f64) -> Result<f64, Fault> {
        const REDUCE_TAG: usize = usize::MAX;
        let nranks = self.to.len();
        let contribution = match op {
            ReduceOp::Add => mine - baseline,
            _ => mine,
        };
        if self.rank == 0 {
            let mut acc = contribution;
            let mut t = self.clock;
            for p in 1..nranks {
                let m = self.from[p]
                    .recv()
                    .map_err(|_| Box::new(SimError::CommMismatch("reduce recv".into())))?;
                debug_assert_eq!(m.tag, REDUCE_TAG);
                t = t.max(m.t_send);
                acc = match op {
                    ReduceOp::Add => acc + m.values[0],
                    ReduceOp::Max => acc.max(m.values[0]),
                    ReduceOp::Min => acc.min(m.values[0]),
                };
            }
            let total = match op {
                ReduceOp::Add => baseline + acc,
                _ => acc,
            };
            let log_p = (nranks as f64).log2().ceil().max(1.0);
            t += 2.0 * self.machine.alpha * log_p;
            self.clock = t;
            for p in 1..nranks {
                self.to[p]
                    .send(Message {
                        tag: REDUCE_TAG,
                        t_send: t,
                        values: vec![total],
                    })
                    .map_err(|_| Box::new(SimError::CommMismatch("reduce bcast".into())))?;
            }
            Ok(total)
        } else {
            self.to[0]
                .send(Message {
                    tag: REDUCE_TAG,
                    t_send: self.clock,
                    values: vec![contribution],
                })
                .map_err(|_| Box::new(SimError::CommMismatch("reduce send".into())))?;
            let m = self.from[0]
                .recv()
                .map_err(|_| Box::new(SimError::CommMismatch("reduce final".into())))?;
            self.clock = self.clock.max(m.t_send);
            Ok(m.values[0])
        }
    }
}

/// Sorts a partner's bucket of offsets and drops repeated elements,
/// leaving the message payload as a set in memory order.
fn into_element_set(bucket: &mut Vec<usize>) {
    bucket.sort_unstable();
    bucket.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_codegen::{Cond, Expr, StmtId};

    fn var(name: &str) -> Expr {
        Expr::Var(name.into())
    }

    fn nest(var: &str, lo: Expr, hi: Expr, body: Code) -> Code {
        Code::Loop {
            var: var.into(),
            lo,
            hi,
            step: 1,
            body: Box::new(body),
        }
    }

    #[test]
    fn column_major_reverses_parameter_bounded_nests_only() {
        let s = Code::Stmt(StmtId(0));
        let inner = |v: &str, lo: Expr| nest(v, lo, var("n"), s.clone());
        // A box whose bounds name only parameters: d2 goes outermost.
        let boxed = nest("d1", Expr::Const(1), Expr::Const(5), inner("d2", var("m")));
        let reversed = nest("d2", var("m"), var("n"), {
            nest("d1", Expr::Const(1), Expr::Const(5), s.clone())
        });
        assert_eq!(column_major(&boxed), reversed);
        // Under a guard and in a sequence, each nest on its own.
        let guarded = Code::Seq(vec![
            Code::If {
                cond: Cond::Geq(var("m"), Expr::Const(0)),
                body: Box::new(boxed.clone()),
            },
            boxed,
        ]);
        let want = Code::Seq(vec![
            Code::If {
                cond: Cond::Geq(var("m"), Expr::Const(0)),
                body: Box::new(reversed.clone()),
            },
            reversed,
        ]);
        assert_eq!(column_major(&guarded), want);
        // An inner bound on an outer index, or a guard inside the nest,
        // keeps the order.
        let triangle = nest("d1", Expr::Const(1), Expr::Const(5), inner("d2", var("d1")));
        assert_eq!(column_major(&triangle), triangle);
        let inner_guard = nest(
            "d1",
            Expr::Const(1),
            Expr::Const(5),
            Code::If {
                cond: Cond::Geq(var("d1"), Expr::Const(2)),
                body: Box::new(inner("d2", var("m"))),
            },
        );
        assert_eq!(column_major(&inner_guard), inner_guard);
    }
}

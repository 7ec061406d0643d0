//! The SPMD executor: runs a compiled program on `P` simulated ranks with
//! logical-clock message timing.
//!
//! Each rank is a thread with a full-size copy of every array (only the
//! owned region plus received halo elements are meaningful), connected by
//! FIFO channels. Simulated time uses an α/β model: a receive completes at
//! `max(t_local, t_send + α + bytes·β)`.

use crate::interp::{Fault, Frame, SimError};
use crate::lower::{ArrayId, At, Exec, Lower, Range, Slot};
use crate::machine::MachineModel;
use crate::store::Array;
use dhpf_codegen::{Code, StmtId};
use dhpf_core::driver::Compiled;
use dhpf_core::ir::ReduceOp;
use dhpf_core::spmd::{NestOp, SpmdItem, SpmdProgram};
use dhpf_core::ProcCoord;
use dhpf_hpf::Analysis;
use std::collections::HashMap;
use std::ops::RangeInclusive;
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
/// direction, and the in-place vs buffered transfer mix. A message goes
/// in place — no pack or unpack copy, the paper's §3.3 — when the
/// run-time test on its offsets finds its elements consecutive in memory.
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
    /// Sends of contiguous regions (no pack copy), as tested when sent.
    pub inplace_sends: u64,
    /// Sends that packed a strided region into a buffer.
    pub buffered_sends: u64,
    /// Receives landing directly in place (contiguous target), as tested
    /// when received.
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
/// Returns [`SimError::Unsupported`] for a grid the program cannot run on
/// (the wrong number of dimensions, a count below one, a count other than
/// a fixed dimension's, or fully cyclic virtual processors), before any
/// rank starts; otherwise [`SimError`] for missing inputs, run-time faults
/// or internal communication mismatches.
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
    let bad_grid = |m: String| Err(SimError::Unsupported(m));
    if counts.len() != program.proc_dims.len() {
        return bad_grid(format!(
            "{} processor counts for a {}-dimensional grid",
            counts.len(),
            program.proc_dims.len()
        ));
    }
    for (d, spec) in program.proc_dims.iter().enumerate() {
        if counts[d] < 1 {
            return bad_grid(format!("{} processors in dimension {d}", counts[d]));
        }
        if let ProcCoord::Physical { count } = spec.coord {
            if count != counts[d] {
                return bad_grid(format!(
                    "dimension {d} is fixed at {count} processors, not {}",
                    counts[d]
                ));
            }
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
    let machine = *machine;
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

    let mut handles = Vec::new();
    for rank in 0..nranks {
        let plan = Arc::clone(&plan);
        let counts = counts.to_vec();
        let r = Rank {
            rank,
            machine,
            to: sends[rank].clone(),
            from: receivers[rank]
                .iter_mut()
                .map(|r| r.take().expect("receiver"))
                .collect(),
            clock: 0.0,
            comm: RankComm::default(),
            buckets: vec![Vec::new(); nranks],
        };
        handles.push(std::thread::spawn(move || {
            run_rank(r, &counts, &plan).map_err(|e| *e)
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
            owned(&mut out.frame, &mut arrays).map_err(|e| *e)?;
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
/// are slots, arrays are handles, and statements, nests and comm maps are
/// closures over the array bounds.
struct Plan {
    items: Vec<Item>,
    /// Per distributed array, its owned region's copy from a rank's frame
    /// into the global arrays.
    owned: Vec<Exec<Vec<Array>>>,
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
    Nest {
        code: Exec<Rank>,
        /// Accumulator slot and combining operation of each reduction.
        reductions: Vec<(Slot, ReduceOp)>,
    },
}

/// Per partner rank: the column-major offset of each element a comm map
/// enumerated for it.
type Buckets = Vec<Vec<usize>>;

/// A communication event with its maps compiled over `[q1..qr, d1..dk]`.
struct Event {
    id: usize,
    send: Exec<Buckets>,
    recv: Exec<Buckets>,
    array: ArrayId,
}

/// How a `q<d>` value names a physical processor coordinate.
struct PartnerDim {
    q: Slot,
    /// Block-size slot of a virtual-processor dimension: VP `v` is
    /// processor `(v - 1) / B`, and only `v ≡ 1 (mod B)` is a real one.
    block: Option<Slot>,
    count: i64,
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
        Code::Stmt(_) => code.clone(),
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
        // The §4.2/Figure 6 loop rewrite: a partner loop over a VP
        // dimension steps by the block size from the first real VP.
        let vp_blocks: HashMap<String, Slot> = grid
            .iter()
            .enumerate()
            .filter_map(|(d, &(_, _, vp))| vp.map(|(bsize, _)| (format!("q{}", d + 1), bsize)))
            .collect();
        let vp = |v: &str| vp_blocks.get(v).copied();
        let mut events = Vec::with_capacity(program.events.len());
        for ev in &program.events {
            let array = lower
                .syms
                .array(&ev.array)
                .ok_or_else(|| SimError::Unbound(ev.array.clone()))?;
            let partner: Arc<[PartnerDim]> = (0..ev.proc_rank as usize)
                .map(|d| PartnerDim {
                    q: lower.syms.slot(&format!("q{}", d + 1)),
                    block: grid[d].2.map(|(bsize, _)| bsize),
                    count: counts[d],
                })
                .collect();
            let mut leaf = |lower: &mut Lower, _| -> Exec<Buckets> {
                let (partner, elem) = (partner.clone(), lower.slot_element(array, ev.data_rank));
                Box::new(move |f, buckets| comm_leaf(f, buckets, &partner, &elem))
            };
            events.push(Arc::new(Event {
                id: ev.id,
                send: lower.code(&ev.send_code, &vp, &mut leaf),
                recv: lower.code(&ev.recv_code, &vp, &mut leaf),
                array,
            }));
        }
        let items = lower_items(&program.items, &events, &mut lower);
        let mut owned = Vec::new();
        for (name, spec) in &program.arrays {
            if let (Some(code), Some(array)) = (&spec.owned_code, lower.syms.array(name)) {
                let rank = spec.dims.len() as u32;
                let mut leaf = |lower: &mut Lower, _| -> Exec<Vec<Array>> {
                    let elem = lower.slot_element(array, rank);
                    Box::new(move |f, global| {
                        let off = elem.offset(f)?;
                        global[array].data[off] = f.arrays[array].data[off];
                        Ok(())
                    })
                };
                owned.push(lower.code(&column_major(code), &|_| None, &mut leaf));
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
            owned,
            base,
            dims,
            position,
        })
    }
}

fn lower_items(items: &[SpmdItem], events: &[Arc<Event>], lower: &mut Lower) -> Vec<Item> {
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
                body: lower_items(body, events, lower),
            },
            SpmdItem::Nest(nest) => {
                // Each statement instance is its operation's closure.
                let mut leaf = |lower: &mut Lower, id: StmtId| -> Exec<Rank> {
                    match &nest.ops[id.0] {
                        NestOp::Assign(cs) => {
                            let assign = lower.assign(&cs.lhs, &cs.subs, &cs.rhs, cs.cost);
                            let assign = lower.guarded(&cs.guards, assign);
                            Box::new(move |f, r| r.exec(f, &assign))
                        }
                        NestOp::CommSend(ev) => {
                            let ev = Arc::clone(&events[*ev]);
                            Box::new(move |f, r| r.comm_send(f, &ev))
                        }
                        NestOp::CommRecv(ev) => {
                            let ev = Arc::clone(&events[*ev]);
                            Box::new(move |f, r| r.comm_recv(f, &ev))
                        }
                    }
                };
                Item::Nest {
                    code: lower.code(&nest.code, &|_| None, &mut leaf),
                    reductions: nest
                        .reductions
                        .iter()
                        .map(|r| (lower.syms.slot(&r.scalar), r.op))
                        .collect(),
                }
            }
        })
        .collect()
}

/// A comm map's leaf: buckets the element the `d<k>` slots name under the
/// partner rank the `q<d>` slots name. Partner loops over
/// virtual-processor dimensions were compiled with the block size as their
/// stride, so only *real* VPs are visited; a safety filter still skips any
/// fictitious VP that would slip through.
fn comm_leaf(
    f: &mut Frame,
    buckets: &mut Buckets,
    partner: &[PartnerDim],
    elem: &At,
) -> Result<(), Fault> {
    let mut rank = 0i64;
    for p in partner {
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
        rank = rank * p.count + c;
    }
    let off = elem.offset(f)?;
    buckets[rank as usize].push(off);
    Ok(())
}

struct RankOut {
    time: f64,
    comm: RankComm,
    frame: Frame,
}

/// A rank's state besides its frame: its mailboxes, clock and counters.
struct Rank {
    rank: usize,
    machine: MachineModel,
    to: Vec<Sender<Message>>,
    from: Vec<Receiver<Message>>,
    clock: f64,
    comm: RankComm,
    buckets: Buckets,
}

fn run_rank(mut r: Rank, counts: &[i64], plan: &Plan) -> Result<RankOut, Fault> {
    let mut frame = plan.base.clone();
    frame.arrays = plan.dims.iter().cloned().map(Array::new).collect();
    // Coordinates are row-major, last dimension fastest.
    let mut rem = r.rank as i64;
    for d in (0..counts.len()).rev() {
        let (m, block) = plan.position[d];
        let c = rem % counts[d];
        rem /= counts[d];
        frame.ints[m] = Some(match block {
            None => c,
            Some(bs) => bs * c + 1,
        });
    }
    r.run_items(&mut frame, &plan.items)?;
    Ok(RankOut {
        time: r.clock,
        comm: r.comm,
        frame,
    })
}

impl Rank {
    fn run_items(&mut self, frame: &mut Frame, items: &[Item]) -> Result<(), Fault> {
        for item in items {
            match item {
                Item::Serial(stmt) => self.exec(frame, stmt)?,
                Item::SerialLoop { var, range, body } => {
                    for x in range.eval(frame)? {
                        frame.ints[*var] = Some(x);
                        self.run_items(frame, body)?;
                    }
                }
                Item::Nest { code, reductions } => {
                    // Snapshot reduction accumulators.
                    let snaps: Vec<f64> = reductions
                        .iter()
                        .map(|&(s, _)| frame.floats[s].unwrap_or(0.0))
                        .collect();
                    code(frame, self)?;
                    for (&(s, op), baseline) in reductions.iter().zip(snaps) {
                        let mine = frame.floats[s].unwrap_or(0.0);
                        let combined = self.allreduce(op, mine, baseline)?;
                        frame.floats[s] = Some(combined);
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs a compiled statement, advancing the clock by its flops.
    fn exec(&mut self, frame: &mut Frame, stmt: &Exec) -> Result<(), Fault> {
        let mut flops = 0u64;
        stmt(frame, &mut flops)?;
        self.clock += flops as f64 * self.machine.flop;
        Ok(())
    }

    /// Runs a comm map, bucketing each enumerated element by partner rank.
    /// The map's code is a cover: it may visit an element more than once
    /// (once per overlapping piece). [`into_element_set`] turns a bucket
    /// into the sorted, deduplicated set of elements, in memory
    /// (column-major) order: the payload both sides of a message agree on,
    /// since every rank lays its arrays out alike, independent of how the
    /// map's code is split into loop nests.
    fn enumerate_comm(&mut self, frame: &mut Frame, map: &Exec<Buckets>) -> Result<(), Fault> {
        for b in &mut self.buckets {
            b.clear();
        }
        map(frame, &mut self.buckets)
    }

    fn comm_send(&mut self, frame: &mut Frame, ev: &Event) -> Result<(), Fault> {
        self.enumerate_comm(frame, &ev.send)?;
        for partner in 0..self.buckets.len() {
            if partner == self.rank || self.buckets[partner].is_empty() {
                continue;
            }
            let bucket = &mut self.buckets[partner];
            into_element_set(bucket);
            let data = &frame.arrays[ev.array].data;
            let values: Vec<f64> = match contiguous_run(bucket) {
                Some(run) => {
                    self.comm.inplace_sends += 1;
                    data[run].to_vec()
                }
                None => {
                    self.clock += bucket.len() as f64 * self.machine.copy;
                    self.comm.buffered_sends += 1;
                    bucket.iter().map(|&off| data[off]).collect()
                }
            };
            let nbytes = (values.len() * 8) as u64;
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

    fn comm_recv(&mut self, frame: &mut Frame, ev: &Event) -> Result<(), Fault> {
        self.enumerate_comm(frame, &ev.recv)?;
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
            self.comm.recv_messages += 1;
            self.comm.recv_bytes += nbytes;
            let data = &mut frame.arrays[ev.array].data;
            match contiguous_run(bucket) {
                Some(run) => {
                    self.comm.inplace_recvs += 1;
                    data[run].copy_from_slice(&msg.values);
                }
                None => {
                    self.clock += msg.values.len() as f64 * self.machine.copy;
                    self.comm.buffered_recvs += 1;
                    for (&off, v) in bucket.iter().zip(&msg.values) {
                        data[off] = *v;
                    }
                }
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

/// §3.3's run-time test of one message: its element set (sorted and
/// deduplicated by [`into_element_set`]) is contiguous in memory exactly
/// when its last offset minus its first is its length minus one. Returns
/// that run of offsets, which the message then moves as one slice, with
/// no pack or unpack copy. The test is O(1); the sender and the receiver
/// run it on the same element set, so they agree. It alone decides: the
/// compile-time verdict (`CommEvent::contiguous`) is on the union of all
/// partners' data, and a contiguous union may be strided per partner.
fn contiguous_run(set: &[usize]) -> Option<RangeInclusive<usize>> {
    match (set.first(), set.last()) {
        (Some(&first), Some(&last)) if last - first + 1 == set.len() => Some(first..=last),
        _ => None,
    }
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

//! The SPMD executor: runs a compiled program on `P` simulated ranks with
//! logical-clock message timing.
//!
//! Each rank is a thread with a full-size copy of every array (only the
//! owned region plus received halo elements are meaningful), connected by
//! FIFO channels. Simulated time uses an α/β model: a receive completes at
//! `max(t_local, t_send + α + bytes·β)`.

use crate::interp::{allocate, eval_affine, eval_int, exec_stmt, SimError};
use crate::machine::MachineModel;
use crate::store::{Array, Store};
use dhpf_codegen::Env;
use dhpf_core::driver::Compiled;
use dhpf_core::ir::ReduceOp;
use dhpf_core::spmd::{CommEvent, NestOp, SpmdItem, SpmdProgram};
use dhpf_core::ProcCoord;
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

    let program = Arc::new(program.clone());
    let analysis = Arc::new(compiled.analysis.clone());
    let machine = *machine;
    let inputs = Arc::new(inputs.clone());
    let counts_v = counts.to_vec();
    let mut handles = Vec::new();
    for rank in 0..nranks {
        let program = Arc::clone(&program);
        let analysis = Arc::clone(&analysis);
        let inputs = Arc::clone(&inputs);
        let counts = counts_v.clone();
        let to_others: Vec<Sender<Message>> = sends[rank].clone();
        let from_others: Vec<Receiver<Message>> = receivers[rank]
            .iter_mut()
            .map(|r| r.take().expect("receiver"))
            .collect();
        handles.push(std::thread::spawn(move || {
            run_rank(
                rank,
                &counts,
                &program,
                &analysis,
                &inputs,
                &machine,
                &to_others,
                &from_others,
            )
        }));
    }
    let mut rank_times = vec![0.0; nranks];
    let mut comm = vec![RankComm::default(); nranks];
    let mut floats = HashMap::new();
    let mut ints = HashMap::new();
    let mut arrays: HashMap<String, Array> = HashMap::new();
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
    for (rank, out) in results.into_iter().map(Result::unwrap).enumerate() {
        rank_times[rank] = out.time;
        comm[rank] = out.comm;
        if rank == 0 {
            floats = out.store.floats.clone();
            ints = out.store.ints.clone();
            for (name, arr) in &out.store.arrays {
                arrays.insert(name.clone(), arr.clone());
            }
        }
        // Overlay each rank's owned elements into the global arrays.
        for (name, owned) in out.owned {
            let garr = arrays
                .entry(name.clone())
                .or_insert_with(|| out.store.arrays[&name].clone());
            for (idx, v) in owned {
                garr.set(&idx, v);
            }
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
        arrays,
    })
}

/// Elements of one distributed array owned by a rank: `(index tuple, value)`.
type OwnedElems = Vec<(Vec<i64>, f64)>;

/// Communication partners for one event: `(partner rank, data index tuples)`.
type PartnerTuples = Vec<(usize, Vec<Vec<i64>>)>;

struct RankOut {
    time: f64,
    comm: RankComm,
    store: Store,
    owned: Vec<(String, OwnedElems)>,
}

struct Rank<'a> {
    rank: usize,
    nranks: usize,
    program: &'a SpmdProgram,
    machine: &'a MachineModel,
    to: &'a [Sender<Message>],
    from: &'a [Receiver<Message>],
    store: Store,
    env: Env,
    clock: f64,
    comm: RankComm,
    counts: Vec<i64>,
}

#[allow(clippy::too_many_arguments)]
fn run_rank(
    rank: usize,
    counts: &[i64],
    program: &SpmdProgram,
    analysis: &dhpf_hpf::Analysis,
    inputs: &HashMap<String, i64>,
    machine: &MachineModel,
    to: &[Sender<Message>],
    from: &[Receiver<Message>],
) -> Result<RankOut, SimError> {
    let nranks: usize = counts.iter().product::<i64>() as usize;
    let mut store = allocate(analysis, inputs)?;
    store
        .ints
        .insert("number_of_processors".into(), nranks as i64);
    // Bind grid parameters: coordinates (row-major, last dim fastest).
    let mut env: Env = inputs.iter().map(|(k, v)| (k.clone(), *v)).collect();
    // Declared `parameter` constants always win over (stale) inputs: the
    // compiler folded them into the generated sets, so the runtime
    // environment must agree.
    for (name, s) in &analysis.scalars {
        if let dhpf_hpf::ScalarKind::Constant(v) = s.kind {
            env.insert(name.clone(), v);
        }
    }
    env.insert("number_of_processors".into(), nranks as i64);
    let mut rem = rank as i64;
    let mut coords = vec![0i64; counts.len()];
    for d in (0..counts.len()).rev() {
        coords[d] = rem % counts[d];
        rem /= counts[d];
    }
    for (d, spec) in program.proc_dims.iter().enumerate() {
        env.insert(format!("np{}", d + 1), counts[d]);
        match &spec.coord {
            ProcCoord::Physical { .. } => {
                env.insert(format!("m{}", d + 1), coords[d]);
            }
            ProcCoord::BlockVp { bsize, nproc } => {
                let extent = spec
                    .extent
                    .as_ref()
                    .ok_or_else(|| SimError::Unbound("template extent".into()))?;
                let n = eval_affine(extent, &store)?;
                let bs = (n + counts[d] - 1) / counts[d];
                env.insert(bsize.clone(), bs);
                env.insert(nproc.clone(), counts[d]);
                env.insert(format!("m{}", d + 1), bs * coords[d] + 1);
            }
            _ => unreachable!("rejected before spawn"),
        }
    }
    let mut r = Rank {
        rank,
        nranks,
        program,
        machine,
        to,
        from,
        store,
        env,
        clock: 0.0,
        comm: RankComm::default(),
        counts: counts.to_vec(),
    };
    r.run_items(&program.items)?;
    // Gather owned regions.
    let mut owned = Vec::new();
    for (name, spec) in &program.arrays {
        if let Some(code) = &spec.owned_code {
            let arr = &r.store.arrays[name];
            let rank_v = arr.dims.len();
            let mut items = Vec::new();
            let mut env = r.env.clone();
            code.execute(&mut env, &mut |_, e| {
                let idx: Vec<i64> = (0..rank_v).map(|d| e[&format!("d{}", d + 1)]).collect();
                items.push((idx.clone(), arr.get(&idx)));
            })
            .map_err(|e| SimError::Unbound(e.0))?;
            owned.push((name.clone(), items));
        }
    }
    Ok(RankOut {
        time: r.clock,
        comm: r.comm,
        store: r.store,
        owned,
    })
}

impl Rank<'_> {
    fn run_items(&mut self, items: &[SpmdItem]) -> Result<(), SimError> {
        for item in items {
            match item {
                SpmdItem::Serial(stmt) => {
                    let mut flops = 0u64;
                    self.sync_env_into_store();
                    exec_stmt(stmt, &mut self.store, &mut flops)?;
                    self.sync_store_into_env();
                    self.clock += flops as f64 * self.machine.flop;
                }
                SpmdItem::SerialLoop { var, lo, hi, body } => {
                    self.sync_env_into_store();
                    let lo = eval_int(lo, &self.store)?;
                    let hi = eval_int(hi, &self.store)?;
                    for x in lo..=hi {
                        self.env.insert(var.clone(), x);
                        self.store.ints.insert(var.clone(), x);
                        self.run_items(body)?;
                    }
                }
                SpmdItem::Nest(nest) => {
                    // Snapshot reduction accumulators.
                    let snaps: Vec<(String, f64)> = nest
                        .reductions
                        .iter()
                        .map(|r| {
                            (
                                r.scalar.clone(),
                                self.store.floats.get(&r.scalar).copied().unwrap_or(0.0),
                            )
                        })
                        .collect();
                    let mut env = self.env.clone();
                    // Interpret the nest code; errors inside the callback are
                    // latched and re-raised.
                    let mut pending_err: Option<SimError> = None;
                    let code = nest.code.clone();
                    let ops = nest.ops.clone();
                    let this = &mut *self;
                    code.execute(&mut env, &mut |id, e| {
                        if pending_err.is_some() {
                            return;
                        }
                        if let Err(err) = this.run_op(&ops[id.0], e) {
                            pending_err = Some(err);
                        }
                    })
                    .map_err(|e| SimError::Unbound(e.0))?;
                    if let Some(err) = pending_err {
                        return Err(err);
                    }
                    // Combine reductions.
                    for (red, (name, baseline)) in nest.reductions.iter().zip(snaps) {
                        let mine = self.store.floats.get(&name).copied().unwrap_or(0.0);
                        let combined = self.allreduce(red.op, mine, baseline)?;
                        self.store.floats.insert(name, combined);
                    }
                }
            }
        }
        Ok(())
    }

    /// Executes one nest operation with the loop environment `e`.
    fn run_op(&mut self, op: &NestOp, e: &Env) -> Result<(), SimError> {
        match op {
            NestOp::Assign(cs) => {
                // The loop environment overlays the store; no per-instance
                // copying.
                for g in &cs.guards {
                    if !crate::interp::eval_bool_in(g, &self.store, Some(e))? {
                        return Ok(());
                    }
                }
                let v = crate::interp::eval_f64_in(&cs.rhs, &self.store, Some(e))?;
                self.clock += cs.cost as f64 * self.machine.flop;
                if self.store.arrays.contains_key(&cs.lhs) {
                    let idx = cs
                        .subs
                        .iter()
                        .map(|s| crate::interp::eval_int_in(s, &self.store, Some(e)))
                        .collect::<Result<Vec<_>, _>>()?;
                    self.store
                        .arrays
                        .get_mut(&cs.lhs)
                        .expect("array")
                        .set(&idx, v);
                } else if self.store.ints.contains_key(&cs.lhs)
                    || (!self.store.floats.contains_key(&cs.lhs)
                        && Store::implicitly_integer(&cs.lhs))
                {
                    self.store.ints.insert(cs.lhs.clone(), v as i64);
                } else {
                    self.store.floats.insert(cs.lhs.clone(), v);
                }
                Ok(())
            }
            NestOp::CommSend(ev) => self.comm_send(&self.program.events[*ev].clone(), e),
            NestOp::CommRecv(ev) => self.comm_recv(&self.program.events[*ev].clone(), e),
        }
    }

    /// Enumerates a comm map's code, returning per-partner index lists in
    /// array-index (lexicographic) order: the payload order both sides of
    /// a message agree on, independent of how the map's code is split into
    /// loop nests.
    ///
    /// Partner (`q*`) loops over virtual-processor dimensions are stepped
    /// so that only *real* VPs (`v = B*c + 1`) are visited — the runtime
    /// loop rewrite of the paper's §4.2/Figure 6. A safety filter still
    /// skips any fictitious VP that would slip through.
    fn enumerate_comm(
        &self,
        code: &dhpf_codegen::Code,
        proc_rank: u32,
        data_rank: u32,
        outer: &Env,
    ) -> Result<PartnerTuples, SimError> {
        let mut env = self.env.clone();
        for (k, v) in outer {
            env.insert(k.clone(), *v);
        }
        let mut per_partner: HashMap<usize, Vec<Vec<i64>>> = HashMap::new();
        {
            let counts = &self.counts;
            let program = self.program;
            let base_env = &self.env;
            let mut on_leaf = |e: &Env| {
                let mut partner = 0i64;
                for d in 0..proc_rank as usize {
                    let q = e[&format!("q{}", d + 1)];
                    let c = match &program.proc_dims[d].coord {
                        ProcCoord::Physical { .. } => q,
                        ProcCoord::BlockVp { bsize, .. } => {
                            let bs = base_env[bsize.as_str()];
                            if (q - 1).rem_euclid(bs) != 0 {
                                return; // fictitious VP
                            }
                            (q - 1) / bs
                        }
                        _ => unreachable!(),
                    };
                    if c < 0 || c >= counts[d] {
                        return; // outside the physical grid
                    }
                    partner = partner * counts[d] + c;
                }
                let idx: Vec<i64> = (0..data_rank as usize)
                    .map(|d| e[&format!("d{}", d + 1)])
                    .collect();
                per_partner.entry(partner as usize).or_default().push(idx);
            };
            self.walk_comm(code, &mut env, &mut on_leaf)?;
        }
        let mut out: Vec<(usize, Vec<Vec<i64>>)> = per_partner.into_iter().collect();
        out.sort_by_key(|(p, _)| *p);
        for (_, idxs) in &mut out {
            idxs.sort_unstable();
        }
        Ok(out)
    }

    /// Executes comm-map code with VP-aware partner-loop stepping.
    fn walk_comm(
        &self,
        code: &dhpf_codegen::Code,
        env: &mut Env,
        on_leaf: &mut impl FnMut(&Env),
    ) -> Result<(), SimError> {
        use dhpf_codegen::Code;
        match code {
            Code::Seq(cs) => {
                for c in cs {
                    self.walk_comm(c, env, on_leaf)?;
                }
            }
            Code::If { cond, body } => {
                if cond.eval(env).map_err(|e| SimError::Unbound(e.0))? {
                    self.walk_comm(body, env, on_leaf)?;
                }
            }
            Code::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let mut lo = lo.eval(env).map_err(|e| SimError::Unbound(e.0))?;
                let hi = hi.eval(env).map_err(|e| SimError::Unbound(e.0))?;
                let mut step = *step;
                // Partner loop over a virtual-processor dimension: step by
                // the block size, starting at the first real VP >= lo.
                if let Some(d) = var.strip_prefix('q').and_then(|s| s.parse::<usize>().ok()) {
                    if let Some(spec) = self.program.proc_dims.get(d - 1) {
                        if let ProcCoord::BlockVp { bsize, .. } = &spec.coord {
                            let bs = self.env[bsize.as_str()];
                            if step == 1 && bs > 1 {
                                lo += (1 - lo).rem_euclid(bs);
                                step = bs;
                            }
                        }
                    }
                }
                let saved = env.get(var).copied();
                let mut x = lo;
                while x <= hi {
                    env.insert(var.clone(), x);
                    self.walk_comm(body, env, on_leaf)?;
                    x += step;
                }
                match saved {
                    Some(v) => {
                        env.insert(var.clone(), v);
                    }
                    None => {
                        env.remove(var);
                    }
                }
            }
            Code::Stmt(_) => on_leaf(env),
            Code::Comment(_) => {}
        }
        Ok(())
    }

    fn comm_send(&mut self, ev: &CommEvent, outer: &Env) -> Result<(), SimError> {
        let plan = self.enumerate_comm(&ev.send_code, ev.proc_rank, ev.data_rank, outer)?;
        for (partner, idxs) in plan {
            if partner == self.rank {
                continue;
            }
            let arr = &self.store.arrays[&ev.array];
            let values: Vec<f64> = idxs.iter().map(|i| arr.get(i)).collect();
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
                .map_err(|_| SimError::CommMismatch("send on closed channel".into()))?;
        }
        Ok(())
    }

    fn comm_recv(&mut self, ev: &CommEvent, outer: &Env) -> Result<(), SimError> {
        let plan = self.enumerate_comm(&ev.recv_code, ev.proc_rank, ev.data_rank, outer)?;
        for (partner, idxs) in plan {
            if partner == self.rank {
                continue;
            }
            let msg = self.from[partner]
                .recv()
                .map_err(|_| SimError::CommMismatch("recv on closed channel".into()))?;
            if msg.tag != ev.id || msg.values.len() != idxs.len() {
                return Err(SimError::CommMismatch(format!(
                    "rank {} expected event {} ({} elems) from {}, got event {} ({} elems)",
                    self.rank,
                    ev.id,
                    idxs.len(),
                    partner,
                    msg.tag,
                    msg.values.len()
                )));
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
            let arr = self
                .store
                .arrays
                .get_mut(&ev.array)
                .expect("comm array exists");
            for (idx, v) in idxs.iter().zip(&msg.values) {
                arr.set(idx, *v);
            }
        }
        Ok(())
    }

    /// Combines a reduction across all ranks (star topology via rank 0).
    fn allreduce(&mut self, op: ReduceOp, mine: f64, baseline: f64) -> Result<f64, SimError> {
        const REDUCE_TAG: usize = usize::MAX;
        let contribution = match op {
            ReduceOp::Add => mine - baseline,
            _ => mine,
        };
        if self.rank == 0 {
            let mut acc = contribution;
            let mut t = self.clock;
            for p in 1..self.nranks {
                let m = self.from[p]
                    .recv()
                    .map_err(|_| SimError::CommMismatch("reduce recv".into()))?;
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
            let log_p = (self.nranks as f64).log2().ceil().max(1.0);
            t += 2.0 * self.machine.alpha * log_p;
            self.clock = t;
            for p in 1..self.nranks {
                self.to[p]
                    .send(Message {
                        tag: REDUCE_TAG,
                        t_send: t,
                        values: vec![total],
                    })
                    .map_err(|_| SimError::CommMismatch("reduce bcast".into()))?;
            }
            Ok(total)
        } else {
            self.to[0]
                .send(Message {
                    tag: REDUCE_TAG,
                    t_send: self.clock,
                    values: vec![contribution],
                })
                .map_err(|_| SimError::CommMismatch("reduce send".into()))?;
            let m = self.from[0]
                .recv()
                .map_err(|_| SimError::CommMismatch("reduce final".into()))?;
            self.clock = self.clock.max(m.t_send);
            Ok(m.values[0])
        }
    }

    fn sync_env_into_store(&mut self) {
        for (k, v) in &self.env {
            self.store.ints.insert(k.clone(), *v);
        }
    }

    fn sync_store_into_env(&mut self) {
        // Integer scalars updated by serial statements must be visible as
        // loop-bound parameters.
        for (k, v) in &self.store.ints {
            self.env.insert(k.clone(), *v);
        }
    }
}

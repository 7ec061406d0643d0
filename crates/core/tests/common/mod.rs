//! A reference walker for compiled communication code, shared by the test
//! suites that check what the send/recv maps enumerate and what that
//! enumeration costs.
//!
//! It mirrors the simulator's walker (virtual-processor loop stepping
//! included) but is written independently of it, with no threads and no
//! channels, so a corrupt plan can't hang a test. Only level-0 events are
//! covered (inner-level events see loop-dependent environments).

use dhpf_codegen::{Code, Env};
use dhpf_core::{Compiled, ProcCoord};
use std::collections::HashMap;

/// One rank's communication plan: `(event index, is_send, partner rank)`
/// mapped to the data tuples moved, in enumeration order.
pub type RankPlan = HashMap<(usize, bool, usize), Vec<Vec<i64>>>;

/// Every rank's level-0 communication plan, and what enumerating it cost.
pub struct CommWalk {
    /// Indexed by rank.
    pub plans: Vec<RankPlan>,
    /// Loop iterations the comm code ran, over all ranks, events and both
    /// sides of each event.
    pub iterations: u64,
}

/// The runtime environment of `rank` on the grid `counts`, as the
/// simulator binds it before the first statement.
fn rank_env(c: &Compiled, counts: &[i64], inputs: &HashMap<String, i64>, rank: usize) -> Env {
    let nranks: i64 = counts.iter().product();
    let mut env: Env = inputs.clone();
    for (name, s) in &c.analysis.scalars {
        if let dhpf_hpf::ScalarKind::Constant(v) = s.kind {
            env.insert(name.clone(), v);
        }
    }
    env.insert("number_of_processors".into(), nranks);
    let mut rem = rank as i64;
    let mut coords = vec![0i64; counts.len()];
    for d in (0..counts.len()).rev() {
        coords[d] = rem % counts[d];
        rem /= counts[d];
    }
    for (d, spec) in c.program.proc_dims.iter().enumerate() {
        env.insert(format!("np{}", d + 1), counts[d]);
        match &spec.coord {
            ProcCoord::Physical { .. } => {
                env.insert(format!("m{}", d + 1), coords[d]);
            }
            ProcCoord::BlockVp { bsize, nproc } => {
                let ext = spec.extent.as_ref().expect("extent");
                let n = ext.terms.iter().map(|(k, c)| env[k] * c).sum::<i64>() + ext.constant;
                let bs = (n + counts[d] - 1) / counts[d];
                env.insert(bsize.clone(), bs);
                env.insert(nproc.clone(), counts[d]);
                env.insert(format!("m{}", d + 1), bs * coords[d] + 1);
            }
            _ => unimplemented!("cyclic grids are not simulated"),
        }
    }
    env
}

/// Walks one comm map's code, pushing `(partner rank, data tuple)` per
/// leaf and counting loop iterations.
struct Walker<'a> {
    c: &'a Compiled,
    counts: &'a [i64],
    proc_rank: u32,
    data_rank: u32,
    leaves: Vec<(usize, Vec<i64>)>,
    iterations: u64,
}

impl Walker<'_> {
    fn walk(&mut self, code: &Code, env: &mut Env) {
        match code {
            Code::Seq(cs) => {
                for k in cs {
                    self.walk(k, env);
                }
            }
            Code::If { cond, body } => {
                if cond.eval(env).expect("eval cond") {
                    self.walk(body, env);
                }
            }
            Code::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let mut lo = lo.eval(env).expect("eval lo");
                let hi = hi.eval(env).expect("eval hi");
                let mut step = *step;
                if let Some(d) = var.strip_prefix('q').and_then(|s| s.parse::<usize>().ok()) {
                    if let Some(ProcCoord::BlockVp { bsize, .. }) =
                        self.c.program.proc_dims.get(d - 1).map(|s| &s.coord)
                    {
                        let bs = env[bsize.as_str()];
                        if step == 1 && bs > 1 {
                            lo += (1 - lo).rem_euclid(bs);
                            step = bs;
                        }
                    }
                }
                let saved = env.get(var).copied();
                let mut x = lo;
                while x <= hi {
                    self.iterations += 1;
                    env.insert(var.clone(), x);
                    self.walk(body, env);
                    x += step;
                }
                match saved {
                    Some(v) => env.insert(var.clone(), v),
                    None => env.remove(var),
                };
            }
            Code::Stmt(_) => self.leaf(env),
        }
    }

    fn leaf(&mut self, env: &Env) {
        let mut partner = 0i64;
        for d in 0..self.proc_rank as usize {
            let q = env[&format!("q{}", d + 1)];
            let coord = match &self.c.program.proc_dims[d].coord {
                ProcCoord::Physical { .. } => q,
                ProcCoord::BlockVp { bsize, .. } => {
                    let bs = env[bsize.as_str()];
                    if (q - 1).rem_euclid(bs) != 0 {
                        return;
                    }
                    (q - 1) / bs
                }
                _ => unreachable!(),
            };
            if coord < 0 || coord >= self.counts[d] {
                return;
            }
            partner = partner * self.counts[d] + coord;
        }
        let idx: Vec<i64> = (0..self.data_rank as usize)
            .map(|d| env[&format!("d{}", d + 1)])
            .collect();
        self.leaves.push((partner as usize, idx));
    }
}

/// Enumerates the per-rank, per-event, per-partner comm tuples of a
/// compiled program directly from its level-0 send/recv code.
pub fn comm_plans(c: &Compiled, counts: &[i64], inputs: &HashMap<String, i64>) -> CommWalk {
    let nranks: usize = counts.iter().product::<i64>() as usize;
    let mut out = CommWalk {
        plans: Vec::with_capacity(nranks),
        iterations: 0,
    };
    for rank in 0..nranks {
        let mut env = rank_env(c, counts, inputs, rank);
        let mut plans = RankPlan::new();
        for ev in c.program.events.iter().filter(|ev| ev.level == 0) {
            for (is_send, code) in [(true, &ev.send_code), (false, &ev.recv_code)] {
                let mut w = Walker {
                    c,
                    counts,
                    proc_rank: ev.proc_rank,
                    data_rank: ev.data_rank,
                    leaves: Vec::new(),
                    iterations: 0,
                };
                w.walk(code, &mut env);
                out.iterations += w.iterations;
                for (p, idx) in w.leaves {
                    plans.entry((ev.id, is_send, p)).or_default().push(idx);
                }
            }
        }
        out.plans.push(plans);
    }
    out
}

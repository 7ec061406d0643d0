//! Pipeline invariant probes for the differential oracle.
//!
//! Each probe checks one paper-level invariant of the analysis outputs by
//! exhaustive enumeration over concrete processor ids and data points —
//! independent ground truth against the symbolic Omega machinery. The
//! `oracle_pipeline` suite runs them over randomized block-distributed
//! programs and `parallel_equiv` on a context shared with the parallel
//! driver; each includes this file as `#[path = "common/probes.rs"] mod
//! probes;`.

use dhpf_core::{CommSets, SplitSets};
use dhpf_omega::{Relation, Set};

/// Checks that a computation-partitioning map assigns every iteration of
/// `iter_space` to exactly one of the `n_procs` processors (the ON_HOME
/// model makes CP maps a partition of the loop range, paper §2).
///
/// # Errors
///
/// Returns a human-readable description of the first violation found.
pub fn cp_partition(cp: &Relation, iter_space: &Set, n_procs: i64) -> Result<(), String> {
    let iters = iter_space
        .enumerate(&[])
        .map_err(|e| format!("cp_partition: iteration space not enumerable: {e}"))?;
    for point in &iters {
        let owners: Vec<i64> = (0..n_procs)
            .filter(|&p| cp.contains_pair(&[p], point, &[]))
            .collect();
        if owners.len() != 1 {
            return Err(format!(
                "cp_partition: iteration {point:?} owned by processors {owners:?} \
                 (expected exactly one of 0..{n_procs})"
            ));
        }
    }
    Ok(())
}

/// Checks the Send/Recv duality of Figure 3: processor `m` sends datum `d`
/// to partner `p` if and only if `p` receives `d` from partner `m`.
///
/// `data` is the concrete window of array index points to test (typically
/// the full declared index set of the array).
///
/// # Errors
///
/// Returns a human-readable description of the first violation found.
pub fn comm_duality(sets: &CommSets, n_procs: i64, data: &[Vec<i64>]) -> Result<(), String> {
    for m in 0..n_procs {
        for p in 0..n_procs {
            if m == p {
                continue;
            }
            for d in data {
                let sent = sets.send_map.contains_pair(&[p], d, &[("m1", m)]);
                let recvd = sets.recv_map.contains_pair(&[m], d, &[("m1", p)]);
                if sent != recvd {
                    return Err(format!(
                        "comm_duality: datum {d:?} sent by {m} to {p} = {sent}, \
                         but received by {p} from {m} = {recvd}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Checks that the Figure 4 sections partition the partitioned iteration
/// set `mine` for processor `m`: every iteration of `mine` lies in exactly
/// one of `local`/`nl_ro`/`nl_wo`/`nl_rw`, and no section strays outside.
///
/// # Errors
///
/// Returns a human-readable description of the first violation found.
pub fn split_partition(splits: &SplitSets, mine: &Set, m: i64) -> Result<(), String> {
    let params = [("m1", m)];
    let iters = mine
        .enumerate(&params)
        .map_err(|e| format!("split_partition: iteration set not enumerable for m={m}: {e}"))?;
    let sections = [
        ("local", &splits.local),
        ("nl_ro", &splits.nl_ro),
        ("nl_wo", &splits.nl_wo),
        ("nl_rw", &splits.nl_rw),
    ];
    for point in &iters {
        let homes: Vec<&str> = sections
            .iter()
            .filter(|(_, s)| s.contains(point, &params))
            .map(|&(n, _)| n)
            .collect();
        if homes.len() != 1 {
            return Err(format!(
                "split_partition: iteration {point:?} of processor {m} lies in \
                 sections {homes:?} (expected exactly one)"
            ));
        }
    }
    for (name, s) in sections {
        let pts = s
            .enumerate(&params)
            .map_err(|e| format!("split_partition: section {name} not enumerable: {e}"))?;
        for point in &pts {
            if !mine.contains(point, &params) {
                return Err(format!(
                    "split_partition: section {name} contains {point:?} for m={m}, \
                     which is outside the partitioned iteration set"
                ));
            }
        }
    }
    Ok(())
}

/// Checks that two [`CommSets`] computed by different routes (e.g. on a
/// fresh and on a warm [`Context`](dhpf_omega::Context)) denote the same
/// communication.
///
/// # Errors
///
/// Returns a human-readable description of the first component that
/// differs, or the underlying [`dhpf_omega::OmegaError`] rendered as a string if the
/// comparison itself is inexact.
pub fn comm_equiv(a: &CommSets, b: &CommSets) -> Result<(), String> {
    let pairs = [
        ("nl_read_data", &a.nl_read_data, &b.nl_read_data),
        ("nl_write_data", &a.nl_write_data, &b.nl_write_data),
    ];
    for (name, x, y) in pairs {
        match x.equal(y) {
            Ok(true) => {}
            Ok(false) => return Err(format!("comm_equiv: {name} differs:\n  {x}\n  {y}")),
            Err(e) => return Err(format!("comm_equiv: {name} comparison inexact: {e}")),
        }
    }
    let map_pairs = [
        ("send_map", &a.send_map, &b.send_map),
        ("recv_map", &a.recv_map, &b.recv_map),
    ];
    for (name, x, y) in map_pairs {
        match x.equal(y) {
            Ok(true) => {}
            Ok(false) => return Err(format!("comm_equiv: {name} differs:\n  {x}\n  {y}")),
            Err(e) => return Err(format!("comm_equiv: {name} comparison inexact: {e}")),
        }
    }
    Ok(())
}

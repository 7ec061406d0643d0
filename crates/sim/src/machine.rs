//! The machine performance model (an α/β model of a message-passing
//! multicomputer, standing in for the paper's IBM SP-2).

/// Cost parameters of the simulated machine, in seconds.
///
/// Simulated time advances as:
/// - each floating-point operation costs [`flop`](MachineModel::flop);
/// - a message of `b` bytes costs the sender
///   [`overhead`](MachineModel::overhead) and arrives at
///   `t_send + alpha + b * beta`;
/// - packing/unpacking a non-contiguous message costs
///   [`copy`](MachineModel::copy) per element on each side (in-place
///   communication skips this). The §3.3 run-time test that decides it —
///   the first and last of a message's sorted offsets — is integer work,
///   like loop bounds, guards and partner loops, and is not charged;
/// - an allreduce costs `2 * alpha * ceil(log2 P)` beyond synchronization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineModel {
    /// Seconds per floating-point operation.
    pub flop: f64,
    /// Message latency (seconds).
    pub alpha: f64,
    /// Seconds per byte of message payload.
    pub beta: f64,
    /// Sender-side per-message overhead (seconds).
    pub overhead: f64,
    /// Seconds per element copied when packing/unpacking buffers.
    pub copy: f64,
}

impl MachineModel {
    /// Parameters loosely modeled on a mid-1990s IBM SP-2 with the
    /// user-space MPI layer: ~40 us latency, ~35 MB/s bandwidth,
    /// ~50 Mflop/s per node.
    pub fn sp2() -> Self {
        MachineModel {
            flop: 20e-9,
            alpha: 40e-6,
            beta: 1.0 / 35e6,
            overhead: 10e-6,
            copy: 30e-9,
        }
    }

    /// Time for a message of `bytes` to traverse the network.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.alpha + bytes as f64 * self.beta
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel::sp2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp2_transfer_time_scales_with_bytes() {
        let m = MachineModel::sp2();
        let small = m.transfer_time(8);
        let big = m.transfer_time(8_000_000);
        assert!(small < 50e-6, "small message dominated by latency");
        assert!(big > 0.2, "large message dominated by bandwidth");
    }
}

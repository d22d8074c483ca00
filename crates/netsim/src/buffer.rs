//! Shared-memory switch buffering with dynamic thresholds.
//!
//! The paper's IBM RackSwitch G8264 (like most merchant-silicon ToRs) does
//! not give each port a private buffer: all ports draw from one shared
//! memory pool, with a *dynamic threshold* (DT) admission rule [Choudhury &
//! Hahne]: a packet is admitted to a port's queue only while
//!
//! ```text
//! queue_len(port) < α · (pool_size − total_used)
//! ```
//!
//! so a single congested port may absorb most of the pool, but as more
//! ports heat up each one's share shrinks automatically. This changes loss
//! patterns relative to static per-port drop-tail: an isolated ECMP hash
//! collision gets a deep buffer (big latency tail, little loss), while
//! fan-in across many ports starts dropping much earlier.
//!
//! [`SharedBuffer`] is consulted by the fabric on every switch-egress
//! enqueue; host-facing NIC queues remain plain drop-tail.

/// Dynamic-threshold shared buffer state for one switch.
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    /// Total pool in bytes (G8264-class: a few MB for 10 GbE ports).
    pub pool_bytes: u64,
    /// DT α parameter; merchant silicon typically defaults to 1 or 2.
    pub alpha: f64,
    used: u64,
}

impl SharedBuffer {
    /// A pool of `pool_bytes` with threshold factor `alpha`.
    pub fn new(pool_bytes: u64, alpha: f64) -> Self {
        assert!(pool_bytes > 0 && alpha > 0.0);
        SharedBuffer {
            pool_bytes,
            alpha,
            used: 0,
        }
    }

    /// Bytes currently held across all of the switch's queues.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Remaining pool.
    pub fn free(&self) -> u64 {
        self.pool_bytes - self.used
    }

    /// The DT admission test: may a packet of `wire` bytes join a queue
    /// currently holding `queue_bytes`?
    pub fn admits(&self, queue_bytes: u64, wire: u64) -> bool {
        self.admits_with_credit(0, queue_bytes, wire)
    }

    /// [`SharedBuffer::admits`] with `credit` bytes virtually released:
    /// packets that finished serializing at the current instant but whose
    /// `TxDone` has not yet popped to settle the pool (see
    /// `LinkQueue::finished_unsettled`). Keeps DT admission independent of
    /// that same-instant tie's order.
    pub fn admits_with_credit(&self, credit: u64, queue_bytes: u64, wire: u64) -> bool {
        let used = self.used.saturating_sub(credit);
        if used + wire > self.pool_bytes {
            return false;
        }
        let threshold = self.alpha * (self.pool_bytes - used) as f64;
        (queue_bytes as f64) < threshold
    }

    /// Account an admitted packet.
    pub fn on_enqueue(&mut self, wire: u64) {
        debug_assert!(self.used + wire <= self.pool_bytes, "pool overflow");
        self.used += wire;
    }

    /// Release a transmitted packet.
    pub fn on_dequeue(&mut self, wire: u64) {
        debug_assert!(self.used >= wire, "pool underflow");
        self.used -= wire;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pool_admits_up_to_alpha_share() {
        let b = SharedBuffer::new(1_000_000, 1.0);
        // Empty pool: threshold = 1.0 * 1MB; a fresh queue admits.
        assert!(b.admits(0, 1538));
        // A queue already at the threshold does not.
        assert!(!b.admits(1_000_000, 1538));
    }

    #[test]
    fn single_hot_port_can_take_most_of_the_pool() {
        let mut b = SharedBuffer::new(1_000_000, 1.0);
        let mut q = 0u64;
        // Keep admitting to one queue until DT refuses.
        while b.admits(q, 1538) {
            b.on_enqueue(1538);
            q += 1538;
        }
        // With alpha=1 a lone queue converges to pool/2.
        let share = q as f64 / 1_000_000.0;
        assert!((0.45..0.55).contains(&share), "lone-port share {share}");
    }

    #[test]
    fn two_hot_ports_split_the_pool() {
        let mut b = SharedBuffer::new(1_200_000, 1.0);
        let (mut q1, mut q2) = (0u64, 0u64);
        // Alternate admissions.
        loop {
            let a1 = b.admits(q1, 1538);
            if a1 {
                b.on_enqueue(1538);
                q1 += 1538;
            }
            let a2 = b.admits(q2, 1538);
            if a2 {
                b.on_enqueue(1538);
                q2 += 1538;
            }
            if !a1 && !a2 {
                break;
            }
        }
        // With alpha=1 and two equal hot ports, each gets ~pool/3.
        let total = (q1 + q2) as f64 / 1_200_000.0;
        assert!((0.6..0.72).contains(&total), "combined share {total}");
        assert!((q1 as i64 - q2 as i64).unsigned_abs() < 10_000);
    }

    #[test]
    fn higher_alpha_is_more_permissive() {
        let greedy = SharedBuffer::new(1_000_000, 4.0);
        let strict = SharedBuffer::new(1_000_000, 0.5);
        // A 600KB queue in an otherwise empty pool:
        assert!(greedy.admits(600_000, 1538));
        assert!(!strict.admits(600_000, 1538));
    }

    #[test]
    fn dequeue_releases_pool() {
        let mut b = SharedBuffer::new(10_000, 1.0);
        b.on_enqueue(4_000);
        assert_eq!(b.used(), 4_000);
        assert_eq!(b.free(), 6_000);
        b.on_dequeue(4_000);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn hard_pool_cap_is_absolute() {
        let mut b = SharedBuffer::new(10_000, 100.0);
        b.on_enqueue(9_000);
        // Even with huge alpha, a packet that would overflow the pool is
        // refused.
        assert!(!b.admits(0, 1_538));
        assert!(b.admits(0, 900));
    }
}

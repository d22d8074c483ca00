//! Property-based tests of the core invariants (DESIGN.md §5).

use proptest::prelude::*;

use presto::core::FlowcellScheduler;
use presto::endhost::{EdgePolicy, ReceiveOffload};
use presto::gro::PrestoGro;
use presto::netsim::{FlowKey, HostId, Mac, Packet, PacketKind, MSS};
use presto::simcore::{SimDuration, SimTime};
use presto::transport::TcpReceiver;

fn flow() -> FlowKey {
    FlowKey::new(HostId(0), HostId(1), 1, 2)
}

/// Packet `i` of a stream where every `cell_len` consecutive packets share
/// a flowcell.
fn pkt(i: u64, cell_len: u64) -> Packet {
    let kind = PacketKind::Data {
        seq: i * MSS as u64,
        len: MSS,
        retx: false,
    };
    Packet::new(flow(), Mac::host(HostId(1)), i / cell_len, kind)
}

proptest! {
    /// Presto GRO never delivers bytes to TCP out of order, for ANY
    /// bounded-displacement permutation of the packet stream and any poll
    /// batching — the paper's core receiver guarantee (no loss case).
    #[test]
    fn presto_gro_delivers_in_order(
        seed in 0u64..5000,
        cell_len in 2u64..8,
        window in 1u64..4,
        batch_raw in 1usize..32,
    ) {
        // Physical model: packets of one flowcell traverse one path and
        // stay FIFO; different cells may skew against each other by up to
        // `window` cells. Reordered cells must also arrive within roughly
        // one poll of their slot, else the hold legitimately times out
        // (assumes loss) and delivery may skip ahead — so the poll batch
        // covers the displacement window.
        let n = 64u64;
        let batch = batch_raw.max((window * cell_len) as usize + 1);
        // Per-cell arrival jitter, packets stable-sorted by jittered key:
        // intra-cell order is preserved, cells interleave.
        let n_cells = n.div_ceil(cell_len);
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let cell_jitter: Vec<u64> = (0..n_cells)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) % (window + 1)
            })
            .collect();
        let mut keys: Vec<(u64, u64)> = (0..n)
            .map(|i| (i + cell_jitter[(i / cell_len) as usize] * cell_len, i))
            .collect();
        keys.sort(); // stable
        let order: Vec<u64> = keys.into_iter().map(|(_, i)| i).collect();

        let mut g = PrestoGro::new();
        let mut t = SimTime::from_micros(1);
        let mut delivered: Vec<(u64, u32)> = Vec::new();
        for chunk in order.chunks(batch) {
            for &i in chunk {
                g.on_packet(t, &pkt(i, cell_len));
            }
            for s in g.flush(t) {
                delivered.push((s.seq, s.len));
            }
            t += SimDuration::from_micros(30);
        }
        // Drain all holds via their timeouts.
        let mut guard = 0;
        while let Some(d) = g.next_deadline() {
            let at = if d > t { d } else { t };
            for s in g.flush_expired(at) {
                delivered.push((s.seq, s.len));
            }
            t = at + SimDuration::from_micros(1);
            guard += 1;
            prop_assert!(guard < 1000, "timeout drain did not converge");
        }
        // In order: every segment starts exactly where the previous ended.
        let mut expect = 0u64;
        for &(seq, len) in &delivered {
            prop_assert_eq!(seq, expect, "gap or reordering at seq {}", seq);
            expect = seq + len as u64;
        }
        // Nothing lost, nothing duplicated: full byte coverage.
        prop_assert_eq!(expect, n * MSS as u64, "coverage mismatch");
    }

    /// Algorithm 1's round robin hands each label the same number of
    /// flowcells (±1), for ANY skb size mix.
    #[test]
    fn flowcell_scheduler_cells_per_label_differ_by_one(
        sizes in prop::collection::vec(1u32..=65536, 50..400),
        n_labels in 2usize..8,
    ) {
        let dst = HostId(9);
        let labels: Vec<Mac> = (0..n_labels as u32).map(|t| Mac::shadow(dst, t)).collect();
        let mut s = FlowcellScheduler::new();
        s.set_labels(dst, labels.clone());
        let f = FlowKey::new(HostId(0), dst, 7, 80);
        let mut cells: std::collections::HashMap<Mac, std::collections::HashSet<u64>> =
            std::collections::HashMap::new();
        for &len in &sizes {
            let tag = s.assign(SimTime::ZERO, f, len, false);
            cells.entry(tag.dst_mac).or_default().insert(tag.flowcell);
        }
        let counts: Vec<usize> = labels
            .iter()
            .map(|m| cells.get(m).map_or(0, |s| s.len()))
            .collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "cell counts {counts:?}");
    }

    /// With uniform skb sizes (what a steadily-sending TCP produces), the
    /// byte split across labels is near-perfect: within one flowcell plus
    /// one skb.
    #[test]
    fn flowcell_scheduler_balances_bytes_uniform(
        len in 1u32..=65536,
        count in 100usize..600,
        n_labels in 2usize..8,
    ) {
        let dst = HostId(9);
        let labels: Vec<Mac> = (0..n_labels as u32).map(|t| Mac::shadow(dst, t)).collect();
        let mut s = FlowcellScheduler::new();
        s.set_labels(dst, labels.clone());
        let f = FlowKey::new(HostId(0), dst, 7, 80);
        let mut bytes = std::collections::HashMap::new();
        for _ in 0..count {
            let tag = s.assign(SimTime::ZERO, f, len, false);
            *bytes.entry(tag.dst_mac).or_insert(0u64) += len as u64;
        }
        let max = labels.iter().map(|m| bytes.get(m).copied().unwrap_or(0)).max().unwrap();
        let min = labels.iter().map(|m| bytes.get(m).copied().unwrap_or(0)).min().unwrap();
        prop_assert!(
            max - min <= 64 * 1024 + len as u64,
            "imbalance {} for len {len} count {count}",
            max - min
        );
    }

    /// Weighted sequences converge to the configured proportions.
    #[test]
    fn weighted_rr_realizes_weights(w1 in 1u32..5, w2 in 1u32..5, w3 in 1u32..5) {
        let dst = HostId(9);
        let (p1, p2, p3) = (Mac::shadow(dst, 0), Mac::shadow(dst, 1), Mac::shadow(dst, 2));
        let mut s = FlowcellScheduler::new();
        s.set_weighted_labels(dst, &[(p1, w1), (p2, w2), (p3, w3)]);
        let f = FlowKey::new(HostId(0), dst, 7, 80);
        let rounds = 120 * (w1 + w2 + w3) as usize;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..rounds {
            let tag = s.assign(SimTime::ZERO, f, 64 * 1024, false);
            *counts.entry(tag.dst_mac).or_insert(0u64) += 1;
        }
        let total = w1 + w2 + w3;
        for (mac, w) in [(p1, w1), (p2, w2), (p3, w3)] {
            let got = counts.get(&mac).copied().unwrap_or(0) as f64 / rounds as f64;
            let want = w as f64 / total as f64;
            prop_assert!((got - want).abs() < 0.02, "{mac:?}: got {got}, want {want}");
        }
    }

    /// The TCP receiver delivers every byte exactly once for any arrival
    /// permutation of the segments.
    #[test]
    fn receiver_delivers_exactly_once(perm_seed in 0u64..10_000, n in 5u64..150) {
        let mut order: Vec<u64> = (0..n).collect();
        let mut x = perm_seed | 1;
        for i in (1..order.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut r = TcpReceiver::new();
        for &i in &order {
            r.on_segment(i * MSS as u64, MSS);
        }
        prop_assert_eq!(r.delivered, n * MSS as u64);
        prop_assert_eq!(r.rcv_nxt(), n * MSS as u64);
        prop_assert_eq!(r.ooo_bytes(), 0);
    }
}

/// Non-proptest invariant: the scheduler's flowcell IDs are strictly
/// monotone per flow, and each cell's bytes never exceed the threshold.
#[test]
fn flowcell_ids_monotone_and_bounded() {
    let dst = HostId(3);
    let mut s = FlowcellScheduler::new();
    s.set_labels(dst, (0..4).map(|t| Mac::shadow(dst, t)).collect());
    let f = FlowKey::new(HostId(0), dst, 9, 80);
    let mut last_cell = 0;
    let mut cell_bytes = std::collections::HashMap::new();
    let sizes = [1u32, 1460, 9000, 65536, 32768, 100];
    for i in 0..2000 {
        let len = sizes[i % sizes.len()];
        let tag = s.assign(SimTime::ZERO, f, len, false);
        assert!(tag.flowcell >= last_cell, "flowcell id went backwards");
        last_cell = tag.flowcell;
        *cell_bytes.entry(tag.flowcell).or_insert(0u64) += len as u64;
    }
    for (&cell, &b) in &cell_bytes {
        assert!(b <= 64 * 1024, "cell {cell} holds {b} bytes");
    }
}

//! Property tests for the live telemetry fold path: folding device-report
//! streams shard-by-shard, in *any* arrival interleaving and at *any* shard
//! count, must yield the same [`MetricsSnapshot`] — and the same Prometheus
//! text — as a single serial fold in device order.
//!
//! The generated streams carry integer-valued samples (report counts,
//! kill counts, microsecond latencies), matching what devices actually
//! upload; sums of such values stay far below 2^53, so f64 addition is
//! exact and the merge algebra (counter add, gauge max, bucket-wise
//! histogram add) is genuinely order-insensitive down to the byte, and
//! every histogram's bucket counts keep summing to its `count`.

use mvqoe_metrics::{prometheus, MetricsRegistry, MetricsSnapshot};
use proptest::prelude::*;

/// One device's contribution to the fleet registry, as folded by the
/// telemetry service from its 1 Hz report stream.
#[derive(Debug, Clone)]
struct DeviceStream {
    reports: u32,
    kills: u16,
    pressure_peak: u16,
    fold_us: Vec<u16>,
}

fn stream_strategy() -> impl Strategy<Value = DeviceStream> {
    (
        0..10_000u32,
        0..50u16,
        0..1000u16,
        prop::collection::vec(any::<u16>(), 0..20),
    )
        .prop_map(|(reports, kills, pressure_peak, fold_us)| DeviceStream {
            reports,
            kills,
            pressure_peak,
            fold_us,
        })
}

fn snapshot_of(s: &DeviceStream) -> MetricsSnapshot {
    let mut r = MetricsRegistry::new();
    r.add_counter("fleet.reports_total", s.reports as u64);
    r.add_counter("fleet.kills_total", s.kills as u64);
    r.set_gauge("fleet.pressure_peak", s.pressure_peak as f64);
    let h = r.histogram("telemetryd.fold_latency_us");
    for &v in &s.fold_us {
        r.observe(h, v as f64);
    }
    r.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_interleaved_fold_matches_the_serial_fold(
        streams in prop::collection::vec(stream_strategy(), 1..24),
        keys in prop::collection::vec(any::<u32>(), 24),
        n_shards in 1usize..6,
    ) {
        let devices: Vec<MetricsSnapshot> = streams.iter().map(snapshot_of).collect();

        // The reference: one serial fold in device-id order.
        let serial = MetricsSnapshot::merged(&devices);

        // The live path: reports arrive in an arbitrary interleaving
        // (a permutation derived from the generated sort keys), land in
        // the shard keyed by device id, and the shards merge at scrape
        // time in ring order.
        let mut order: Vec<usize> = (0..devices.len()).collect();
        order.sort_by_key(|&i| (keys[i % keys.len()], i));
        let mut shards = vec![MetricsSnapshot::default(); n_shards];
        for &i in &order {
            shards[i % n_shards].merge(&devices[i]);
        }
        let mut folded = MetricsSnapshot::default();
        for s in &shards {
            folded.merge(s);
        }

        prop_assert_eq!(&folded, &serial, "snapshot must be interleaving-invariant");
        // Every histogram's buckets account for every observation, both
        // fresh from `snapshot` and after any sequence of merges.
        for snap in devices.iter().chain(&shards).chain([&serial]) {
            for (name, h) in &snap.histograms {
                let bucket_sum: u64 = h.buckets.iter().map(|&(_, n)| n).sum();
                prop_assert_eq!(bucket_sum, h.count, "{}: bucket sum != count", name);
            }
        }
        let folded_text = prometheus::encode(&folded);
        let serial_text = prometheus::encode(&serial);
        prop_assert_eq!(&folded_text, &serial_text, "exposition must be byte-identical");
        let stats = prometheus::validate(&serial_text)
            .map_err(|e| TestCaseError::fail(format!("invalid exposition: {e}")))?;
        prop_assert_eq!(stats.families, 4);
    }

    #[test]
    fn exposition_of_any_merged_snapshot_validates(
        streams in prop::collection::vec(stream_strategy(), 0..12),
    ) {
        let devices: Vec<MetricsSnapshot> = streams.iter().map(snapshot_of).collect();
        let merged = MetricsSnapshot::merged(&devices);
        let text = prometheus::encode(&merged);
        prometheus::validate(&text)
            .map_err(|e| TestCaseError::fail(format!("invalid exposition: {e}")))?;
    }
}

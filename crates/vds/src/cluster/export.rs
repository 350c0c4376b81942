//! Operator surfaces: utilisation, simulated makespan, live fairness,
//! the health snapshot and the Prometheus text exposition.

use std::sync::Arc;

use rshare_obs::{family_header, sample_line, Registry};

use super::StorageCluster;
use crate::device::{Device, DeviceState};
use crate::health::{FairnessReport, HealthSnapshot};

impl StorageCluster {
    /// The simulated completion time of everything the cluster has done so
    /// far: the largest per-device busy time, i.e. the makespan assuming
    /// all devices operate in parallel.
    #[must_use]
    pub fn makespan_us(&self) -> u64 {
        self.devices
            .values()
            .map(|d| d.stats().busy_us)
            .max()
            .unwrap_or(0)
    }

    /// Clears every device's I/O counters (e.g. to time one workload phase
    /// in isolation).
    pub fn reset_stats(&mut self) {
        for d in self.devices.values_mut() {
            d.reset_stats();
        }
    }
    /// Per-device `(id, used, capacity)` utilisation snapshot.
    #[must_use]
    pub fn utilization(&self) -> Vec<(u64, u64, u64)> {
        self.devices
            .values()
            .map(|d| (d.id(), d.used_blocks(), d.capacity_blocks()))
            .collect()
    }

    /// Live fairness report over the online devices: every device's share
    /// of the stored shards against its capacity-proportional fair share
    /// `b_i / B` — the paper's Lemma 3.1, measured instead of proved.
    #[must_use]
    pub fn fairness_report(&self) -> FairnessReport {
        let rows: Vec<(u64, u64, u64)> = self
            .devices
            .values()
            .filter(|d| d.state() == DeviceState::Online)
            .map(|d| (d.id(), d.used_blocks(), d.capacity_blocks()))
            .collect();
        FairnessReport::compute(&rows)
    }

    /// A point-in-time health summary: device counts, migration debt,
    /// degraded blocks and the fairness report. When metrics are enabled
    /// the corresponding gauges (`pending_blocks`, `degraded_blocks`,
    /// `devices_online`, `devices_failed`) are refreshed as a side effect,
    /// so scraping after a snapshot always sees current values.
    ///
    /// Cost: the degraded count comes from
    /// [`StorageCluster::degraded_block_count`] — only the blocks the
    /// damage ledger lists while it is known, every block while it is
    /// unknown (after a device failure or a failed mutation); the rest is
    /// O(devices).
    #[must_use]
    pub fn health_snapshot(&self) -> HealthSnapshot {
        let devices_online = self
            .devices
            .values()
            .filter(|d| d.state() == DeviceState::Online)
            .count();
        let snap = HealthSnapshot {
            devices_online,
            devices_failed: self.devices.len() - devices_online,
            blocks: self.block_count(),
            pending_blocks: self.pending_blocks(),
            degraded_blocks: self.degraded_block_count(),
            fairness: self.fairness_report(),
        };
        if let Some(m) = &self.metrics {
            m.pending_blocks.set(snap.pending_blocks as i64);
            m.degraded_blocks.set(snap.degraded_blocks as i64);
            m.devices_online.set(snap.devices_online as i64);
            m.devices_failed.set(snap.devices_failed as i64);
        }
        snap
    }

    /// The registry the cluster's series live in, when metrics are
    /// enabled — programmatic access to every counter and histogram by
    /// name.
    #[must_use]
    pub fn metrics_registry(&self) -> Option<Arc<Registry>> {
        self.metrics.as_ref().map(|m| Arc::clone(&m.registry))
    }

    /// Renders the cluster's full observability surface in Prometheus
    /// text exposition format: the registered series (when metrics are
    /// enabled), scrape-time cluster families (fairness, cache, placement
    /// counters), one labelled series per device for the I/O statistics,
    /// and the process-wide GF(256) kernel tallies.
    ///
    /// Cost: one [`StorageCluster::health_snapshot`] plus O(devices +
    /// series) of rendering. With the damage ledger known, a scrape does
    /// not depend on the block count (well under a millisecond on a
    /// 64-device, 64 Ki-block cluster); with it unknown, the snapshot
    /// checks every block.
    #[must_use]
    pub fn export_prometheus(&self) -> String {
        let snap = self.health_snapshot(); // refreshes the health gauges
        let mut out = match &self.metrics {
            Some(m) => m.registry.render_prometheus(),
            None => String::new(),
        };
        family_header(&mut out, "cluster_blocks", "gauge", "Logical blocks stored");
        sample_line(&mut out, "cluster_blocks", &[], snap.blocks);
        family_header(
            &mut out,
            "fairness_max_deviation",
            "gauge",
            "Largest relative deviation of any online device's data share from its fair share b_i/B",
        );
        sample_line(
            &mut out,
            "fairness_max_deviation",
            &[],
            format!("{:.6}", snap.fairness.max_deviation),
        );
        let cs = self.cache_stats();
        family_header(
            &mut out,
            "placement_cache_hits_total",
            "counter",
            "Placement lookups served from the cache",
        );
        sample_line(&mut out, "placement_cache_hits_total", &[], cs.hits);
        family_header(
            &mut out,
            "placement_cache_misses_total",
            "counter",
            "Placement lookups that recomputed the placement",
        );
        sample_line(&mut out, "placement_cache_misses_total", &[], cs.misses);
        family_header(
            &mut out,
            "placement_cache_entries",
            "gauge",
            "Live placement cache entries",
        );
        sample_line(&mut out, "placement_cache_entries", &[], cs.entries);
        family_header(
            &mut out,
            "placements_computed_total",
            "counter",
            "Placements computed by a strategy (cache hits excluded)",
        );
        sample_line(
            &mut out,
            "placements_computed_total",
            &[],
            self.placements_computed(),
        );
        self.render_device_families(&mut out);
        let ks = rshare_erasure::gf256::kernel_stats();
        family_header(
            &mut out,
            "gf_xor_bytes_total",
            "counter",
            "Bytes XOR-accumulated by the GF(256) bulk kernels (process-wide)",
        );
        sample_line(&mut out, "gf_xor_bytes_total", &[], ks.xor_bytes);
        family_header(
            &mut out,
            "gf_mul_bytes_total",
            "counter",
            "Bytes run through the GF(256) table-multiply kernel (process-wide)",
        );
        sample_line(&mut out, "gf_mul_bytes_total", &[], ks.mul_bytes);
        family_header(
            &mut out,
            "gf_simd_bytes_total",
            "counter",
            "Multiply bytes served by the SIMD kernel tier (process-wide)",
        );
        sample_line(&mut out, "gf_simd_bytes_total", &[], ks.simd_bytes);
        family_header(
            &mut out,
            "gf_kernel_calls_total",
            "counter",
            "GF(256) bulk kernel invocations (process-wide)",
        );
        sample_line(&mut out, "gf_kernel_calls_total", &[], ks.calls);
        out
    }

    /// Renders the per-device series (`device="<id>"`-labelled), one
    /// family at a time in exposition order.
    fn render_device_families(&self, out: &mut String) {
        /// `(name, kind, help, per-device value)` of one exported family.
        type DeviceFamily = (&'static str, &'static str, &'static str, fn(&Device) -> u64);
        let families: [DeviceFamily; 8] = [
            ("device_reads_total", "counter", "Shard reads served", |d| {
                d.stats().reads
            }),
            (
                "device_writes_total",
                "counter",
                "Shard writes absorbed",
                |d| d.stats().writes,
            ),
            ("device_bytes_read_total", "counter", "Bytes read", |d| {
                d.stats().bytes_read
            }),
            (
                "device_bytes_written_total",
                "counter",
                "Bytes written",
                |d| d.stats().bytes_written,
            ),
            (
                "device_busy_us_total",
                "counter",
                "Simulated busy time in microseconds",
                |d| d.stats().busy_us,
            ),
            (
                "device_used_blocks",
                "gauge",
                "Shards currently resident",
                |d| d.used_blocks(),
            ),
            (
                "device_capacity_blocks",
                "gauge",
                "Capacity in shard blocks",
                |d| d.capacity_blocks(),
            ),
            (
                "device_online",
                "gauge",
                "1 when the device serves I/O, 0 when failed",
                |d| u64::from(d.state() == DeviceState::Online),
            ),
        ];
        for (name, kind, help, value) in families {
            family_header(out, name, kind, help);
            for dev in self.devices.values() {
                let id = dev.id().to_string();
                sample_line(out, name, &[("device", id.as_str())], value(dev));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rshare_obs::Registry;

    use crate::cluster::tests::{block, mirror_cluster};
    use crate::cluster::StorageCluster;
    use crate::Redundancy;

    #[test]
    fn makespan_tracks_slowest_device() {
        use crate::profile::DeviceProfile;
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device_with_profile(0, 10_000, DeviceProfile::NVME)
            .device_with_profile(1, 10_000, DeviceProfile::NVME)
            .device_with_profile(2, 10_000, DeviceProfile::HDD)
            .build()
            .unwrap();
        assert_eq!(c.makespan_us(), 0);
        for lba in 0..600u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // The HDD's per-op cost dominates: the makespan must equal its
        // busy time, far above the NVMe devices'.
        let hdd_busy = c.device(2).unwrap().stats().busy_us;
        assert_eq!(c.makespan_us(), hdd_busy);
        let nvme_busy = c.device(0).unwrap().stats().busy_us;
        assert!(hdd_busy > 20 * nvme_busy, "hdd {hdd_busy} nvme {nvme_busy}");
        c.reset_stats();
        assert_eq!(c.makespan_us(), 0);
    }

    #[test]
    fn health_snapshot_reports_debts_and_refreshes_gauges() {
        let mut c = mirror_cluster();
        for lba in 0..200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let healthy = c.health_snapshot();
        assert_eq!(healthy.devices_online, 4);
        assert_eq!(healthy.devices_failed, 0);
        assert_eq!(healthy.blocks, 200);
        assert_eq!(healthy.pending_blocks, 0);
        assert_eq!(healthy.degraded_blocks, 0);
        assert_eq!(healthy.fairness.total_used, 400);
        assert!(healthy.fairness.max_deviation < 0.5);
        c.fail_device(3).unwrap();
        c.add_device_lazy(9, 10_000).unwrap();
        let ailing = c.health_snapshot();
        assert_eq!(ailing.devices_online, 4); // 0, 1, 2 and the new 9
        assert_eq!(ailing.devices_failed, 1);
        assert_eq!(ailing.pending_blocks, 200);
        assert!(ailing.degraded_blocks > 0, "failed device degrades blocks");
        let reg = c.metrics_registry().unwrap();
        assert_eq!(reg.gauge("pending_blocks", "").get(), 200);
        assert_eq!(
            reg.gauge("degraded_blocks", "").get(),
            ailing.degraded_blocks as i64
        );
        assert_eq!(reg.gauge("devices_failed", "").get(), 1);
    }

    #[test]
    fn fairness_report_tracks_capacity_shares() {
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 4_000)
            .device(1, 8_000)
            .device(2, 12_000)
            .device(3, 16_000)
            .build()
            .unwrap();
        for lba in 0..4_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let report = c.fairness_report();
        assert_eq!(report.total_used, 8_000);
        assert_eq!(report.total_capacity, 40_000);
        assert_eq!(report.devices.len(), 4);
        // Redundant Share keeps every device within a modest deviation of
        // its fair share even at this small scale.
        assert!(
            report.max_deviation < 0.15,
            "max deviation {}",
            report.max_deviation
        );
        for d in &report.devices {
            assert!((d.share - d.fair_share * (1.0 + d.deviation)).abs() < 1e-9);
        }
    }

    #[test]
    fn metrics_can_be_disabled_and_export_still_works() {
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 10_000)
            .device(1, 10_000)
            .metrics(false)
            .build()
            .unwrap();
        assert!(c.metrics_registry().is_none());
        c.write_block(0, &block(1, 64)).unwrap();
        assert_eq!(c.read_block(0).unwrap(), block(1, 64));
        let text = c.export_prometheus();
        // No registry series (the per-device `device_reads_total` family
        // is computed, not registered), but computed families render.
        assert!(!text.contains("# TYPE reads_total "));
        assert!(text.contains("cluster_blocks 1"));
        assert!(text.contains("fairness_max_deviation"));
        assert!(text.contains("device_used_blocks{device=\"0\"}"));
    }

    #[test]
    fn export_prometheus_renders_all_surfaces() {
        let mut c = mirror_cluster();
        for lba in 0..100u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        for lba in 0..100u64 {
            c.read_block(lba).unwrap();
        }
        let text = c.export_prometheus();
        for family in [
            "# TYPE reads_total counter",
            "reads_total 100",
            "writes_total 100",
            "# TYPE read_latency_ns histogram",
            // 100 reads sample the latency histogram at 0 and 64.
            "read_latency_ns_count 2",
            "# TYPE pending_blocks gauge",
            "devices_online 4",
            "cluster_blocks 100",
            "fairness_max_deviation",
            "placement_cache_hits_total",
            "placements_computed_total",
            "device_reads_total{device=\"0\"}",
            "device_capacity_blocks{device=\"3\"} 10000",
            "device_online{device=\"1\"} 1",
            "gf_xor_bytes_total",
            "gf_mul_bytes_total",
            "gf_simd_bytes_total",
            "gf_kernel_calls_total",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn shared_registry_merges_two_clusters() {
        let registry = Arc::new(Registry::new());
        let mut a = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 1_000)
            .device(1, 1_000)
            .metrics_registry(Arc::clone(&registry))
            .build()
            .unwrap();
        let mut b = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 1_000)
            .device(1, 1_000)
            .metrics_registry(Arc::clone(&registry))
            .build()
            .unwrap();
        a.write_block(0, &block(1, 64)).unwrap();
        b.write_block(0, &block(2, 64)).unwrap();
        assert_eq!(registry.counter("writes_total", "").get(), 2);
    }
}

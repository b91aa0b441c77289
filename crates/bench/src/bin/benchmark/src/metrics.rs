//! The metric tables: every name this harness prints, with its unit and
//! the direction that counts as better. `BENCHMARK.json` lists the same
//! names (a unit test holds the two together) and adds the bounds, which
//! `compare` reads from that file.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees. Every workload reports all of them.
/// (`failed_share` is not here because it is 0 on every healthy run and a
/// bound is a share of the parent's value; it is the `failed`/`attempted`
/// pair of every result and `bench.failed_share` below.)
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    lower("op_p50_us", "us"),
    lower("op_tail_us", "us"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// Single-layer numbers of the traced pass, named `<layer>.<what>`.
pub const PER_LAYER: [MetricDef; 78] = [
    lower("sparse.fingerprint_ns", "ns"),
    lower("sparse.ref_solve_ns", "ns"),
    lower("sparse.ilu0_ns", "ns"),
    lower("inspector.depgraph_ns", "ns"),
    lower("inspector.wavefront_ns", "ns"),
    lower("inspector.schedule_ns", "ns"),
    lower("inspector.coalesce_ns", "ns"),
    lower("inspector.phases_before", "count"),
    lower("inspector.phases_after", "count"),
    lower("krylov.plan_ns", "ns"),
    lower("krylov.compile_ns", "ns"),
    lower("krylov.gather_ns", "ns"),
    lower("krylov.sweep_ns", "ns"),
    lower("krylov.fused_ns", "ns"),
    lower("krylov.sweep_ns_per_nnz", "ns/nnz"),
    lower("krylov.sweep_bytes_computed", "bytes"),
    higher("krylov.sweep_gbps_computed", "GB/s"),
    higher("krylov.ref_over_sweep", "ratio"),
    lower("krylov.policy_sweep_ns.SelfExecuting", "ns"),
    lower("krylov.policy_sweep_ns.PreScheduled", "ns"),
    lower("krylov.policy_sweep_ns.PreScheduledElided", "ns"),
    lower("krylov.policy_sweep_ns.Doacross", "ns"),
    lower("krylov.encode_artifact_ns", "ns"),
    lower("krylov.decode_artifact_ns", "ns"),
    lower("krylov.artifact_bytes", "bytes"),
    lower("krylov.gmres_iterations", "count"),
    lower("krylov.precond_apply_ns", "ns"),
    lower("krylov.precond_share", "ratio"),
    lower("krylov.iter_other_ns", "ns"),
    lower("executor.barrier_ns", "ns"),
    lower("executor.pool_dispatch_ns", "ns"),
    lower("sim.calibrate_ns", "ns"),
    lower("sim.tp_ns", "ns"),
    lower("sim.tsynch_ns", "ns"),
    lower("sim.seq_residual_rel", "ratio"),
    lower("verify.tri_solve_ns", "ns"),
    lower("store.open_ns", "ns"),
    lower("store.get_ns", "ns"),
    lower("store.put_flush_ns", "ns"),
    lower("store.file_bytes", "bytes"),
    lower("store.dropped_writes", "count"),
    lower("runtime.new_ns", "ns"),
    lower("runtime.warm_ns", "ns"),
    lower("runtime.overhead_ns", "ns"),
    lower("runtime.cold_ns", "ns"),
    lower("runtime.cold_self_ns", "ns"),
    lower("runtime.disk_ns", "ns"),
    lower("runtime.disk_self_ns", "ns"),
    lower("runtime.amortize_k", "ratio"),
    lower("runtime.batch_ns_per_job", "ns"),
    higher("runtime.batch_gain", "ratio"),
    lower("runtime.batch_groups", "count"),
    higher("runtime.cache_hit_ratio", "ratio"),
    lower("runtime.cache_evictions", "count"),
    higher("runtime.store_hits", "count"),
    lower("runtime.store_misses", "count"),
    lower("runtime.store_load_errors", "count"),
    lower("runtime.policy_share.Sequential", "ratio"),
    lower("runtime.pools_created", "count"),
    lower("runtime.scratches_created", "count"),
    higher("runtime.supernode_positions", "count"),
    lower("runtime.verified_plans", "count"),
    lower("server.rtt_ns", "ns"),
    lower("server.codec_ns", "ns"),
    lower("server.frame_io_ns", "ns"),
    lower("server.gather_window_ns", "ns"),
    lower("server.overhead_ns", "ns"),
    lower("server.unattributed_ns", "ns"),
    lower("server.full_solve_rtt_ns", "ns"),
    higher("server.accepted_jobs", "count"),
    higher("server.answered_jobs", "count"),
    lower("server.rejected", "count"),
    lower("server.retries", "count"),
    lower("workload.pattern_gen_ns", "ns"),
    lower("bench.timer_ns", "ns"),
    lower("bench.noise_floor_pct", "%"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.failed_share", "ratio"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::SPECS;

    /// `BENCHMARK.json` sits at the root of the checkout, some levels above
    /// this package's manifest.
    fn contract() -> Json {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                let text = std::fs::read_to_string(candidate).unwrap();
                return Json::parse(&text).unwrap();
            }
            assert!(dir.pop(), "no BENCHMARK.json above the manifest");
        }
    }

    fn listed(contract: &Json, key: &str) -> Vec<(String, String, String)> {
        contract
            .get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn contract_lists_exactly_the_metrics_this_harness_prints() {
        let c = contract();
        assert_eq!(listed(&c, "end_to_end"), table(&END_TO_END));
        assert_eq!(listed(&c, "per_layer"), table(&PER_LAYER));
        for m in c.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn contract_lists_exactly_the_workloads() {
        let c = contract();
        let names: Vec<(&str, &str)> = c
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let specs: Vec<(&str, &str)> = SPECS.iter().map(|s| (s.name, s.why)).collect();
        assert_eq!(names, specs);
        assert!(specs.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}

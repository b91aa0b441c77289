//! Acceptance tests for the persistent plan store (PR 7 satellite),
//! mirroring `wire_codec.rs` one layer down: round trips through a
//! restart must be **bit-exact** per policy; truncated, corrupted, or
//! version-skewed store files must come back as typed errors that the
//! runtime serves around with cold inspection — never panics, never
//! wrong answers.

use rtpl::krylov::ExecutorKind;
use rtpl::runtime::{Job, NoBody, Runtime, RuntimeConfig};
use rtpl::sparse::gen::random_lower;
use rtpl::sparse::ilu::IluFactors;
use rtpl::store::{PlanStore, StoreError, FORMAT_VERSION};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "rtpl-plan-store-test-{}-{name}.rtpl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn factors(n: usize, degree: usize, seed: u64) -> IluFactors {
    let m = random_lower(n, degree, seed);
    IluFactors {
        l: m.strict_lower(),
        u: m.transpose().upper(),
    }
}

fn cfg(path: &Path, nprocs: usize, policy: Option<ExecutorKind>) -> RuntimeConfig {
    RuntimeConfig {
        nprocs,
        calibrate: false,
        policy,
        store_path: Some(path.to_path_buf()),
        ..RuntimeConfig::default()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A store-loaded plan solves **bit-exactly** like the freshly inspected
/// plan it was spilled from, for every executor policy and across random
/// patterns. The policy is pinned on both sides so summation order is
/// identical — this is the restart analogue of the codec round trip.
#[test]
fn store_loaded_plans_solve_bit_exactly_across_policies() {
    for seed in 0..3u64 {
        let f = factors(
            40 + seed as usize * 17,
            2 + seed as usize % 3,
            seed * 11 + 1,
        );
        let n = f.n();
        let b: Vec<f64> = (0..n).map(|i| 0.3 + (i % 13) as f64 * 0.071).collect();
        for kind in ExecutorKind::ALL {
            let path = tmp(&format!("roundtrip-{seed}-{kind:?}"));

            // Lifetime 1: inspect, compile, solve, spill.
            let rt = Runtime::new(cfg(&path, 2, Some(kind)));
            let mut x_cold = vec![0.0; n];
            rt.submit(Job::<NoBody>::solve(&f, &b, &mut x_cold))
                .expect("cold solve");
            assert_eq!(rt.stats().store_writes, 1, "seed {seed} {kind:?}: no spill");
            drop(rt); // joins the flusher; the artifact is durable now

            // Lifetime 2: the same pattern must come from the store.
            let rt = Runtime::new(cfg(&path, 2, Some(kind)));
            let mut x_store = vec![0.0; n];
            rt.submit(Job::<NoBody>::solve(&f, &b, &mut x_store))
                .expect("store-hit solve");
            let stats = rt.stats();
            assert_eq!(
                (stats.store_hits, stats.store_load_errors),
                (1, 0),
                "seed {seed} {kind:?}: plan was not served from the store"
            );
            assert_eq!(
                bits(&x_cold),
                bits(&x_store),
                "seed {seed} {kind:?}: store-loaded solve deviates from inspected solve"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Truncating the store file at **every** prefix length yields a working
/// runtime and a bit-exact answer — short files fail open (storeless),
/// mid-record cuts are repaired away at scan, and only the intact file
/// serves a store hit. Never a panic, never a wrong answer.
#[test]
fn every_truncation_of_the_store_falls_back_cold() {
    let f = factors(12, 2, 7);
    let n = f.n();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.05).collect();
    let policy = Some(ExecutorKind::Sequential);

    let seed_path = tmp("truncate-seed");
    let rt = Runtime::new(cfg(&seed_path, 1, policy));
    let mut reference = vec![0.0; n];
    rt.submit(Job::<NoBody>::solve(&f, &b, &mut reference))
        .expect("seed solve");
    drop(rt);
    let full = std::fs::read(&seed_path).expect("read store file");
    let _ = std::fs::remove_file(&seed_path);

    let path = tmp("truncate-cut");
    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).expect("write truncated store");
        let rt = Runtime::new(cfg(&path, 1, policy));
        let mut x = vec![0.0; n];
        rt.submit(Job::<NoBody>::solve(&f, &b, &mut x))
            .expect("solve over truncated store");
        assert_eq!(
            bits(&reference),
            bits(&x),
            "cut {cut}/{}: answer deviates",
            full.len()
        );
        let s = rt.stats();
        if cut == full.len() {
            assert_eq!((s.store_hits, s.store_load_errors), (1, 0), "intact file");
        } else {
            // Anything shorter is cold one way or another: open failure,
            // scan repair, or a plain miss — all typed, all counted.
            assert_eq!(s.store_hits, 0, "cut {cut}: truncated store served a hit");
            assert!(
                s.store_misses + s.store_load_errors >= 1,
                "cut {cut}: fallback left no trace in the stats"
            );
        }
        drop(rt);
        let _ = std::fs::remove_file(&path);
    }
}

/// Flipping a bit inside the persisted payload is caught by the record
/// checksum: `get` answers a typed `Corrupt` error, and a runtime on the
/// same file counts a load error and re-inspects — bit-exact answer,
/// no panic.
#[test]
fn bit_flips_are_typed_errors_and_served_around() {
    let f = factors(12, 2, 19);
    let n = f.n();
    let b: Vec<f64> = (0..n).map(|i| 0.7 + i as f64 * 0.03).collect();
    let policy = Some(ExecutorKind::Sequential);

    let seed_path = tmp("corrupt-seed");
    let rt = Runtime::new(cfg(&seed_path, 1, policy));
    let mut reference = vec![0.0; n];
    rt.submit(Job::<NoBody>::solve(&f, &b, &mut reference))
        .expect("seed solve");
    let key = Runtime::solve_key(&f).as_u128();
    drop(rt);
    let full = std::fs::read(&seed_path).expect("read store file");
    let _ = std::fs::remove_file(&seed_path);

    // File layout: 12-byte header, 37-byte record header, then payload.
    let payload_start = 12 + 37;
    assert!(
        full.len() > payload_start + 8,
        "store file unexpectedly small"
    );
    let path = tmp("corrupt-flip");
    let mut corrupt_seen = 0;
    for (i, &pos) in [payload_start, payload_start + 7, full.len() - 3]
        .iter()
        .enumerate()
    {
        let mut bytes = full.clone();
        bytes[pos] ^= 1 << (i % 8);
        std::fs::write(&path, &bytes).expect("write corrupted store");

        // Store level: the checksum catches the flip lazily, at `get`.
        let store = PlanStore::open(&path).expect("scan accepts a checksummed lie");
        match store.get(key) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(!detail.is_empty());
                corrupt_seen += 1;
            }
            other => panic!("flip at {pos}: expected Corrupt, got {other:?}"),
        }
        drop(store);

        // Runtime level: typed error counted, answer served cold.
        let rt = Runtime::new(cfg(&path, 1, policy));
        let mut x = vec![0.0; n];
        rt.submit(Job::<NoBody>::solve(&f, &b, &mut x))
            .expect("solve over corrupted store");
        assert_eq!(bits(&reference), bits(&x), "flip at {pos}: answer deviates");
        let s = rt.stats();
        assert!(
            s.store_load_errors >= 1,
            "flip at {pos}: corruption left no trace in the stats"
        );
        assert_eq!(s.store_hits, 0, "flip at {pos}: corrupted record served");
        drop(rt);
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(corrupt_seen, 3);
}

/// A store written by a future format version is rejected cleanly at
/// open — typed `Version` error from the store, storeless (but correct)
/// service from the runtime.
#[test]
fn version_bump_rejects_cleanly() {
    let f = factors(12, 2, 23);
    let n = f.n();
    let b = vec![1.0; n];
    let path = tmp("version-bump");
    let store = PlanStore::open(&path).expect("create store");
    store.put(42, vec![1, 2, 3]);
    store.flush();
    drop(store);

    // The version field lives at bytes 8..12, after the magic.
    let mut bytes = std::fs::read(&path).expect("read store file");
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &bytes).expect("write bumped store");

    match PlanStore::open(&path) {
        Err(StoreError::Version { found, expected }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(expected, FORMAT_VERSION);
        }
        other => panic!("expected a version error, got {other:?}"),
    }

    let rt = Runtime::new(cfg(&path, 1, Some(ExecutorKind::Sequential)));
    assert!(rt.store().is_none(), "runtime adopted an unreadable store");
    assert_eq!(rt.stats().store_load_errors, 1);
    let mut x = vec![0.0; n];
    rt.submit(Job::<NoBody>::solve(&f, &b, &mut x))
        .expect("storeless solve");
    drop(rt);
    let _ = std::fs::remove_file(&path);
}

/// Many threads hammering `put` through the write-behind channel never
/// interleave record bytes: a fresh scan of the resulting file parses
/// cleanly (no repairs) and every accepted payload reads back bit-exact.
#[test]
fn concurrent_writers_never_interleave() {
    const THREADS: usize = 4;
    const PUTS: usize = 48;
    let path = tmp("concurrent");
    let store = PlanStore::open(&path).expect("create store");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = &store;
            scope.spawn(move || {
                for i in 0..PUTS {
                    let key = ((t as u128) << 64) | i as u128;
                    // Distinct, length-varying, key-derived payloads.
                    let payload: Vec<u8> = (0..(17 + (t * 31 + i * 7) % 90))
                        .map(|j| (t * 131 + i * 17 + j) as u8)
                        .collect();
                    // A full queue drops the write by design; nudge the
                    // flusher and retry so this test covers every key.
                    while !store.put(key, payload.clone()) {
                        store.flush();
                    }
                }
            });
        }
    });
    store.flush();
    drop(store);

    let store = PlanStore::open(&path).expect("reopen store");
    let s = store.stats();
    assert_eq!(s.entries, THREADS * PUTS, "records went missing");
    assert_eq!(
        (s.scan_repairs, s.truncated_bytes),
        (0, 0),
        "interleaved or torn records were repaired away"
    );
    for t in 0..THREADS {
        for i in 0..PUTS {
            let key = ((t as u128) << 64) | i as u128;
            let expect: Vec<u8> = (0..(17 + (t * 31 + i * 7) % 90))
                .map(|j| (t * 131 + i * 17 + j) as u8)
                .collect();
            let got = store.get(key).expect("get").expect("present");
            assert_eq!(got, expect, "thread {t} put {i}: payload deviates");
        }
    }
    drop(store);
    let _ = std::fs::remove_file(&path);
}

/// A record persisted by a **pre-supernode build** (plan-artifact
/// version 1) is refused at decode — the compiled layout bytes mean
/// something different now — and the runtime pays one counted cold
/// rebuild instead of misreading it. Emulated by rewriting the spilled
/// artifact's leading version tag; the store re-checksums on put, so
/// only the artifact version check can catch it.
#[test]
fn pre_bump_artifact_version_falls_back_cold() {
    let f = factors(16, 2, 5);
    let n = f.n();
    let b: Vec<f64> = (0..n).map(|i| 0.9 + i as f64 * 0.04).collect();
    let path = tmp("artifact-version-skew");
    let config = cfg(&path, 2, Some(ExecutorKind::Sequential));

    let rt = Runtime::new(config.clone());
    let mut reference = vec![0.0; n];
    rt.submit(Job::<NoBody>::solve(&f, &b, &mut reference))
        .expect("seed solve");
    drop(rt);

    // Payload layout: u64 artifact byte-length, then the artifact, whose
    // first field is the little-endian u32 version.
    let key = Runtime::solve_key(&f).as_u128();
    let store = PlanStore::open(&path).expect("open store");
    let mut payload = store.get(key).expect("get").expect("artifact present");
    payload[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(store.put(key, payload), "queue refused the rewrite");
    store.flush();
    drop(store);

    let rt = Runtime::new(config);
    let mut x = vec![0.0; n];
    rt.submit(Job::<NoBody>::solve(&f, &b, &mut x))
        .expect("solve over stale artifact");
    let stats = rt.stats();
    assert_eq!(stats.store_hits, 0, "a version-1 artifact served");
    assert_eq!(stats.store_load_errors, 1, "the refusal left no trace");
    assert_eq!(stats.solves.builds, 1, "no cold rebuild happened");
    assert_eq!(bits(&reference), bits(&x), "answer deviates after fallback");
    let _ = std::fs::remove_file(&path);
}

/// A persisted artifact whose **barrier plan has been hollowed out** —
/// every kept barrier flipped to elided — decodes cleanly through every
/// shape-and-bounds check in the store/codec stack: lengths agree,
/// indices are in bounds, checksums are freshly correct. Only the plan
/// verifier, which re-proves the cross-processor cover, can refuse it.
/// The runtime must do exactly that: count one load error and one verify
/// failure, pay the cold inspection, and still answer bit-exactly.
#[test]
fn verifier_refuses_a_store_artifact_with_dropped_barriers() {
    use rtpl::executor::compiled::CompiledPlan;
    use rtpl::inspector::{BarrierPlan, Schedule};
    use rtpl::sparse::wire::{WireReader, WireWriter};
    use rtpl::sparse::Csr;

    // A chain factor (row i's L depends only on row i-1) under a striped
    // 2-processor schedule: every dependence crosses processors, so the
    // minimal barrier plan keeps every boundary and dropping any of them
    // is a real race, not a formality.
    let n = 24;
    let mut indptr = vec![0usize];
    let (mut indices, mut vals) = (Vec::new(), Vec::new());
    for i in 0..n {
        if i > 0 {
            indices.push(i as u32 - 1);
            vals.push(0.4);
        }
        indptr.push(indices.len());
    }
    let l = Csr::try_new(n, n, indptr, indices, vals).expect("chain L");
    let mut iptr = vec![0usize];
    let (mut idx, mut v) = (Vec::new(), Vec::new());
    for i in 0..n {
        idx.push(i as u32);
        v.push(1.0);
        iptr.push(idx.len());
    }
    let u = Csr::try_new(n, n, iptr, idx, v).expect("diagonal U");
    let f = IluFactors { l, u };
    let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.03).collect();

    let path = tmp("verify-dropped-barrier");
    let mut config = cfg(&path, 2, Some(ExecutorKind::Sequential));
    config.sorting = rtpl::krylov::Sorting::LocalStriped;
    // Coalescing would merge the whole chain into one phase and leave no
    // barrier to drop; this test is about the per-wavefront cover.
    config.coalesce_factor = 0.0;

    // Lifetime 1: cold inspect, spill the honest artifact.
    let rt = Runtime::new(config.clone());
    let mut reference = vec![0.0; n];
    rt.submit(Job::<NoBody>::solve(&f, &b, &mut reference))
        .expect("seed solve");
    drop(rt);

    // Mutate the persisted payload through the public wire codec: decode
    // every component, re-encode with the forward sweep's barrier plan
    // zeroed. The record is re-checksummed on put, so nothing upstream of
    // the verifier can tell.
    let key = Runtime::solve_key(&f).as_u128();
    let store = PlanStore::open(&path).expect("open store");
    let payload = store.get(key).expect("get").expect("artifact present");
    let mut r = WireReader::new(&payload);
    let artifact = r.u8s_ref().expect("artifact bytes");
    let payload_rest = {
        let mut w = WireWriter::new();
        w.put_f64s(&r.f64s().expect("measured"));
        w.put_u64s(&r.u64s().expect("count"));
        w.into_bytes()
    };
    let mut a = WireReader::new(artifact);
    let mut w = WireWriter::new();
    w.put_u32(a.u32().expect("version"));
    w.put_u64(a.u64().expect("n"));
    w.put_u8(a.u8().expect("kind"));
    for sweep in ["fwd", "bwd"] {
        // Wavefront-coalescing stats (artifact v2): tag byte, then three
        // u64s when the sweep was coalesced.
        let tag = a
            .u8()
            .unwrap_or_else(|e| panic!("{sweep} coalesce tag: {e}"));
        w.put_u8(tag);
        if tag == 1 {
            for field in ["before", "after", "moved"] {
                w.put_u64(
                    a.u64()
                        .unwrap_or_else(|e| panic!("{sweep} phases {field}: {e}")),
                );
            }
        }
    }
    w.put_usizes32(&a.usizes32().expect("l indptr"));
    w.put_u32s(&a.u32s().expect("l indices"));
    w.put_usizes32(&a.usizes32().expect("u indptr"));
    w.put_u32s(&a.u32s().expect("u indices"));
    Schedule::decode(&mut a).expect("schedule L").encode(&mut w);
    let keep_l = BarrierPlan::decode(&mut a).expect("barriers L");
    assert!(
        keep_l.count() > 0,
        "the striped chain must keep barriers for this mutation to mean anything"
    );
    w.put_u8s(&vec![0u8; keep_l.len()]); // every boundary elided
    Schedule::decode(&mut a).expect("schedule U").encode(&mut w);
    BarrierPlan::decode(&mut a)
        .expect("barriers U")
        .encode(&mut w);
    CompiledPlan::decode(&mut a)
        .expect("fwd layout")
        .encode(&mut w);
    CompiledPlan::decode(&mut a)
        .expect("bwd layout")
        .encode(&mut w);
    a.finish().expect("artifact fully consumed");
    let mut out = WireWriter::new();
    out.put_u8s(&w.into_bytes());
    let mut mutated = out.into_bytes();
    mutated.extend_from_slice(&payload_rest);
    assert!(
        store.put(key, mutated),
        "write-behind queue refused the mutant"
    );
    store.flush();
    drop(store);

    // Lifetime 2: the mutant must be refused and served around, cold.
    let rt = Runtime::new(config);
    let mut x = vec![0.0; n];
    rt.submit(Job::<NoBody>::solve(&f, &b, &mut x))
        .expect("solve over mutant artifact");
    let stats = rt.stats();
    assert_eq!(stats.store_hits, 0, "the mutant artifact was cached");
    assert_eq!(stats.store_load_errors, 1, "the refusal left no trace");
    assert!(
        stats.verify_failures >= 1,
        "the rejection must be the verifier's, not a codec accident"
    );
    assert_eq!(stats.solves.builds, 1, "no cold fallback happened");
    assert_eq!(bits(&reference), bits(&x), "answer deviates after fallback");
    let _ = std::fs::remove_file(&path);
}

/// The on-disk plan format, pinned: `tests/corpus/tri_solve_v2.artifact`
/// is `encode_artifact` of mesh 6×5 ILU(0), 2 processors, global sort,
/// grain 12 (10 → 5 phases per sweep), written by the commit before plans
/// became values-free. It must decode, verify, and solve bit-exactly under
/// every kind, and both the decoded plan and a fresh inspection of the
/// pattern must re-encode to the file byte for byte — a store written by
/// any `ARTIFACT_VERSION` 2 build stays readable. Changing the format
/// means bumping the version and regenerating the file on purpose.
#[test]
fn golden_v2_artifact_decodes_verifies_solves_and_reencodes() {
    use rtpl::executor::WorkerPool;
    use rtpl::krylov::{CompiledTriSolve, Sorting, TriangularSolvePlan};
    let golden: &[u8] = include_bytes!("corpus/tri_solve_v2.artifact");
    let f = rtpl::sparse::ilu0(&rtpl::sparse::gen::laplacian_5pt(6, 5)).unwrap();
    let fresh = TriangularSolvePlan::new_with_grain(
        &f,
        2,
        ExecutorKind::SelfExecuting,
        Sorting::Global,
        Some(12.0),
    )
    .unwrap()
    .compile()
    .unwrap();
    let decoded = CompiledTriSolve::decode_artifact(golden).unwrap();
    rtpl::verify::verify_tri_solve(&decoded).unwrap();
    assert!(decoded.plan().coalesce_stats().0.is_some());
    assert_eq!(decoded.encode_artifact(), golden, "decoded plan re-encodes");
    assert_eq!(fresh.encode_artifact(), golden, "fresh inspection encodes");

    let n = f.n();
    let b: Vec<f64> = (0..n).map(|i| 0.3 + (i % 13) as f64 * 0.071).collect();
    let mut expect = vec![0.0; n];
    fresh
        .solve_fused_sequential(&f, &b, &mut expect, &mut fresh.scratch())
        .unwrap();
    let pool = WorkerPool::new(2);
    let mut scratch = decoded.scratch();
    for kind in ExecutorKind::ALL {
        let mut x = vec![0.0; n];
        decoded
            .solve(Some(&pool), kind, &f, &b, &mut x, &mut scratch)
            .unwrap();
        assert_eq!(bits(&x), bits(&expect), "{kind:?}");
    }
}

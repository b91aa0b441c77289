//! The §2.2 transformation rules: from an annotated loop to the
//! inspector/executor pipeline, automatically.
//!
//! The paper's system is a source-to-source transformer inside a
//! parallelizing compiler: given a `doconsider`-annotated loop whose
//! cross-iteration dependences run through index arrays, it emits (1) the
//! run-time dependence analysis + scheduling procedures and (2) the
//! transformed executor loop. This module is that transformer's front end
//! for a small loop IR:
//!
//! * a [`LoopProgram`] describes the body of `x(i) = <expr>` as a stack
//!   program over named arrays (enough for the paper's Figures 2, 6, 8 —
//!   the simple indirect update, the nested index loop, and the sparse
//!   row substitution);
//! * [`compile`] performs the *compile-time* steps 1–3 of §2.3: validate
//!   the program against its [`Env`], resolve every array name to a slot,
//!   extract the dependence pattern symbolically (which reads are flow
//!   dependences, which read old values) and inspect it ([`DoConsider`]);
//! * the [`CompiledLoop`] it returns **is a [`LoopBody`]**, so the
//!   *run-time* steps 4–5 go through the two doors a hand-written body
//!   uses — schedule and run it directly,
//!   `compiled.inspector().schedule(sorting, nprocs)?.run(pool, kind, &compiled, &mut x)`,
//!   or submit it to a [`rtpl_runtime::Runtime`] as
//!   [`rtpl_runtime::Job::looped`] over `compiled.inspector().clone().into_spec()`,
//!   which caches the plan and picks the executor adaptively.
//!
//! Evaluating the body allocates nothing: array reads go straight to their
//! slot, and the value stack is a fixed array of [`MAX_DEPTH`] entries
//! (deeper programs are refused at compile time).
//!
//! Start-time schedulability is checked structurally: the loop body may
//! read index arrays but never writes them, so the dependence data cannot
//! change during execution (§2.1).

use crate::doconsider::DoConsider;
use rtpl_executor::{LoopBody, ValueSource};
use rtpl_inspector::DepGraph;
use std::collections::HashMap;

/// One operation of the loop-body stack program. The loop variable is `i`;
/// the produced value (top of stack at the end) is assigned to `x(i)`.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Push a literal.
    PushConst(f64),
    /// Push `name[i]` from a data array.
    PushData(&'static str),
    /// Push `x(ia[i])` where `ia` names an index array: a **flow
    /// dependence** when `ia[i] < i`, an old-value read otherwise
    /// (Figure 4, line 2a).
    PushX(&'static str),
    /// Push `Σ_k coeffs[i][k] · x(targets[i][k])` — the inner loop of
    /// Figures 6 and 8. `coeffs` is optional (weights of 1.0 when absent).
    PushListSum {
        /// Name of the list-of-lists index array (`g` / `ija`).
        targets: &'static str,
        /// Name of the parallel list-of-lists coefficient array (`a`).
        coeffs: Option<&'static str>,
    },
    /// Pop two, push their sum.
    Add,
    /// Pop two, push `second − top`.
    Sub,
    /// Pop two, push their product.
    Mul,
    /// Pop one, push its negation.
    Neg,
}

/// A `doconsider` loop: `do i = 1, n: x(i) = <ops>`.
#[derive(Clone, Debug)]
pub struct LoopProgram {
    /// Trip count.
    pub n: usize,
    /// Body program; must leave exactly one value on the stack.
    pub ops: Vec<Op>,
}

/// The deepest value stack a body program may need.
pub const MAX_DEPTH: usize = 16;

/// The run-time data the loop refers to.
#[derive(Clone, Debug, Default)]
pub struct Env {
    /// `name -> d` with `d[i]` readable for each loop index.
    pub data: HashMap<&'static str, Vec<f64>>,
    /// `name -> ia` index arrays (`x(ia(i))` reads).
    pub index_arrays: HashMap<&'static str, Vec<usize>>,
    /// `name -> lists` list-of-list index arrays (`g(i, j)` reads).
    pub index_lists: HashMap<&'static str, Vec<Vec<usize>>>,
    /// `name -> lists` list-of-list coefficient arrays.
    pub coeff_lists: HashMap<&'static str, Vec<Vec<f64>>>,
    /// Initial (old) solution values, read by non-dependence accesses.
    pub xold: Vec<f64>,
}

/// Errors from the transformer.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformError {
    /// A named array is missing from the environment.
    UnknownArray(&'static str),
    /// An environment array has the wrong length.
    BadLength {
        /// Which array.
        name: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        found: usize,
    },
    /// The stack program is malformed (underflow, ≠ 1 final value, or a
    /// stack deeper than [`MAX_DEPTH`]).
    BadProgram(String),
    /// An index array entry points outside `0..n`.
    IndexOutOfBounds {
        /// Which array.
        name: &'static str,
        /// Loop index at fault.
        at: usize,
    },
    /// Inspecting the dependence pattern failed.
    Inspector(rtpl_inspector::InspectorError),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::UnknownArray(n) => write!(f, "unknown array `{n}`"),
            TransformError::BadLength {
                name,
                expected,
                found,
            } => write!(
                f,
                "array `{name}`: expected length {expected}, found {found}"
            ),
            TransformError::BadProgram(m) => write!(f, "malformed body program: {m}"),
            TransformError::IndexOutOfBounds { name, at } => {
                write!(f, "index array `{name}` out of bounds at i = {at}")
            }
            TransformError::Inspector(e) => write!(f, "inspector error: {e}"),
        }
    }
}

impl std::error::Error for TransformError {}

impl From<rtpl_inspector::InspectorError> for TransformError {
    fn from(e: rtpl_inspector::InspectorError) -> Self {
        TransformError::Inspector(e)
    }
}

/// One operation of the compiled tape: an [`Op`] with its array names
/// resolved to slots of the [`CompiledLoop`]'s array vectors.
#[derive(Clone, Copy, Debug)]
enum Instr {
    Const(f64),
    Data(usize),
    X(usize),
    ListSum {
        targets: usize,
        coeffs: Option<usize>,
    },
    Add,
    Sub,
    Mul,
    Neg,
}

/// A validated, inspected loop body, ready to schedule and run: its tape,
/// the arrays of its [`Env`] (slot `k` of a kind is the `k`-th array of
/// that kind), and the inspection of its dependence pattern.
#[derive(Debug)]
pub struct CompiledLoop {
    tape: Vec<Instr>,
    data: Vec<Vec<f64>>,
    index_arrays: Vec<Vec<usize>>,
    index_lists: Vec<Vec<Vec<usize>>>,
    coeff_lists: Vec<Vec<Vec<f64>>>,
    xold: Vec<f64>,
    inspector: DoConsider,
}

/// The slot of `name` among `names`.
fn slot(names: &[&'static str], name: &'static str) -> Result<usize, TransformError> {
    names
        .iter()
        .position(|&known| known == name)
        .ok_or(TransformError::UnknownArray(name))
}

/// Compile-time steps (§2.3, 1–3): validate the program against `env` and
/// resolve it to a tape, extract the dependences, and inspect them.
pub fn compile(program: LoopProgram, env: Env) -> Result<CompiledLoop, TransformError> {
    let n = program.n;
    let (data_names, data): (Vec<_>, Vec<_>) = env.data.into_iter().unzip();
    let (ia_names, index_arrays): (Vec<_>, Vec<_>) = env.index_arrays.into_iter().unzip();
    let (list_names, index_lists): (Vec<_>, Vec<_>) = env.index_lists.into_iter().unzip();
    let (coeff_names, coeff_lists): (Vec<_>, Vec<_>) = env.coeff_lists.into_iter().unzip();
    let mut tape = Vec::with_capacity(program.ops.len());
    let mut depth = 0usize;
    for op in &program.ops {
        let (pops, instr) = match *op {
            Op::PushConst(c) => (0, Instr::Const(c)),
            Op::PushData(name) => {
                let k = slot(&data_names, name)?;
                expect_len(name, n, data[k].len())?;
                (0, Instr::Data(k))
            }
            Op::PushX(name) => {
                let k = slot(&ia_names, name)?;
                expect_len(name, n, index_arrays[k].len())?;
                if let Some(at) = index_arrays[k].iter().position(|&t| t >= n) {
                    return Err(TransformError::IndexOutOfBounds { name, at });
                }
                (0, Instr::X(k))
            }
            Op::PushListSum { targets, coeffs } => {
                let k = slot(&list_names, targets)?;
                let g = &index_lists[k];
                expect_len(targets, n, g.len())?;
                if let Some(at) = g.iter().position(|row| row.iter().any(|&t| t >= n)) {
                    return Err(TransformError::IndexOutOfBounds { name: targets, at });
                }
                let coeffs = match coeffs {
                    None => None,
                    Some(cname) => {
                        let c = slot(&coeff_names, cname)?;
                        expect_len(cname, n, coeff_lists[c].len())?;
                        if let Some(i) = (0..n).find(|&i| coeff_lists[c][i].len() != g[i].len()) {
                            return Err(TransformError::BadProgram(format!(
                                "`{cname}` and `{targets}` disagree at i = {i}"
                            )));
                        }
                        Some(c)
                    }
                };
                (0, Instr::ListSum { targets: k, coeffs })
            }
            Op::Add => (2, Instr::Add),
            Op::Sub => (2, Instr::Sub),
            Op::Mul => (2, Instr::Mul),
            Op::Neg => (1, Instr::Neg),
        };
        if depth < pops {
            return Err(TransformError::BadProgram("stack underflow".into()));
        }
        depth = depth - pops + 1;
        if depth > MAX_DEPTH {
            return Err(TransformError::BadProgram(format!(
                "body needs a stack deeper than {MAX_DEPTH} values"
            )));
        }
        tape.push(instr);
    }
    if depth != 1 {
        return Err(TransformError::BadProgram(format!(
            "body must leave exactly one value on the stack, leaves {depth}"
        )));
    }
    expect_len("xold", n, env.xold.len())?;

    // Run-time step 4 begins here in the real system; in library form the
    // dependence extraction happens at compile() because the index arrays
    // are already bound. Start-time schedulability holds by construction:
    // nothing in `Op` writes an index array.
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    for instr in &tape {
        match *instr {
            Instr::X(k) => {
                let ia = &index_arrays[k];
                for (i, l) in lists.iter_mut().enumerate() {
                    if ia[i] < i {
                        l.push(ia[i] as u32);
                    }
                }
            }
            Instr::ListSum { targets, .. } => {
                let g = &index_lists[targets];
                for (i, l) in lists.iter_mut().enumerate() {
                    l.extend(g[i].iter().filter(|&&t| t < i).map(|&t| t as u32));
                }
            }
            _ => {}
        }
    }
    for l in &mut lists {
        l.sort_unstable();
        l.dedup();
    }
    let inspector = DoConsider::inspect(DepGraph::from_lists(n, lists)?)?;
    Ok(CompiledLoop {
        tape,
        data,
        index_arrays,
        index_lists,
        coeff_lists,
        xold: env.xold,
        inspector,
    })
}

fn expect_len(name: &'static str, expected: usize, found: usize) -> Result<(), TransformError> {
    if expected == found {
        Ok(())
    } else {
        Err(TransformError::BadLength {
            name,
            expected,
            found,
        })
    }
}

impl CompiledLoop {
    /// The inspection of the loop's dependence pattern: its graph, its
    /// wavefronts, [`DoConsider::schedule`] for a direct plan and
    /// [`DoConsider::into_spec`] for the runtime.
    pub fn inspector(&self) -> &DoConsider {
        &self.inspector
    }
}

impl LoopBody for CompiledLoop {
    /// Runs the tape for index `i`, reading flow-dependent values through
    /// `src` and everything else from the loop's arrays.
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        let x = |t: usize| if t < i { src.get(t) } else { self.xold[t] };
        let mut stack = [0.0f64; MAX_DEPTH];
        let mut top = 0usize;
        for instr in &self.tape {
            let (pops, v) = match *instr {
                Instr::Const(c) => (0, c),
                Instr::Data(k) => (0, self.data[k][i]),
                Instr::X(k) => (0, x(self.index_arrays[k][i])),
                Instr::ListSum { targets, coeffs } => {
                    let c = coeffs.map(|k| &self.coeff_lists[k][i]);
                    let mut acc = 0.0;
                    for (k, &t) in self.index_lists[targets][i].iter().enumerate() {
                        acc += c.map_or(1.0, |cv| cv[k]) * x(t);
                    }
                    (0, acc)
                }
                Instr::Add => (2, stack[top - 2] + stack[top - 1]),
                Instr::Sub => (2, stack[top - 2] - stack[top - 1]),
                Instr::Mul => (2, stack[top - 2] * stack[top - 1]),
                Instr::Neg => (1, -stack[top - 1]),
            };
            top -= pops;
            stack[top] = v;
            top += 1;
        }
        stack[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpl_executor::{ExecutorKind, WorkerPool};
    use rtpl_inspector::Sorting;

    /// Figure 2: `x(i) = x(i) + b(i) * x(ia(i))`.
    fn figure2_spec(n: usize) -> (LoopProgram, Env) {
        let ia: Vec<usize> = (0..n)
            .map(|i| if i % 4 == 0 { (i + 3) % n } else { i / 2 })
            .collect();
        let b: Vec<f64> = (0..n).map(|i| 0.25 + (i % 3) as f64 * 0.1).collect();
        let xold: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        let program = LoopProgram {
            n,
            // x(i) = xold(i) + b(i) * x(ia(i))
            ops: vec![
                Op::PushData("xold_as_data"),
                Op::PushData("b"),
                Op::PushX("ia"),
                Op::Mul,
                Op::Add,
            ],
        };
        let mut env = Env {
            xold: xold.clone(),
            ..Default::default()
        };
        env.data.insert("b", b);
        env.data.insert("xold_as_data", xold);
        env.index_arrays.insert("ia", ia);
        (program, env)
    }

    /// The direct door: schedule `c` for the pool's processor count (one
    /// without a pool) under `sorting`, run it under `kind`.
    fn run(
        c: &CompiledLoop,
        sorting: Sorting,
        pool: Option<&WorkerPool>,
        kind: ExecutorKind,
    ) -> Vec<f64> {
        let plan = c
            .inspector()
            .schedule(sorting, pool.map_or(1, WorkerPool::nworkers))
            .unwrap();
        let mut out = vec![0.0; plan.n()];
        plan.run(pool, kind, c, &mut out);
        out
    }

    fn sequential_reference(c: &CompiledLoop) -> Vec<f64> {
        run(c, Sorting::Global, None, ExecutorKind::Sequential)
    }

    /// Every sorting × every executor kind on a pool of `p`, bit-equal to
    /// `expect`.
    fn sweep(c: &CompiledLoop, p: usize, expect: &[f64]) {
        let pool = WorkerPool::new(p);
        for sorting in Sorting::ALL {
            for kind in ExecutorKind::ALL {
                let got = run(c, sorting, Some(&pool), kind);
                assert_eq!(got, expect, "{sorting:?}/{kind:?}");
            }
        }
    }

    /// Figure 2 as the untransformed loop, written out by hand — the
    /// arithmetic the interpreted program has always performed.
    fn figure2_by_hand(env: &Env) -> Vec<f64> {
        let (ia, b, xold) = (&env.index_arrays["ia"], &env.data["b"], &env.xold);
        let mut x = vec![0.0; xold.len()];
        for i in 0..x.len() {
            let t = ia[i];
            let operand = if t < i { x[t] } else { xold[t] };
            x[i] = xold[i] + b[i] * operand;
        }
        x
    }

    #[test]
    fn figure2_compiles_and_all_executors_agree() {
        let (program, env) = figure2_spec(30);
        let expect = figure2_by_hand(&env);
        let c = compile(program, env).unwrap();
        assert!(c.inspector().num_wavefronts() >= 2);
        assert_eq!(sequential_reference(&c), expect);
        sweep(&c, 3, &expect);
    }

    /// The runtime door: the compiled loop is a `LoopBody` over its own
    /// inspection's spec, planned once and then served from the cache.
    #[test]
    fn figure2_runs_cold_then_cached_through_the_runtime() {
        use rtpl_runtime::{Job, Runtime, RuntimeConfig};
        let (program, env) = figure2_spec(30);
        let c = compile(program, env).unwrap();
        let expect = sequential_reference(&c);
        let rt = Runtime::new(RuntimeConfig {
            nprocs: 2,
            calibrate: false,
            ..RuntimeConfig::default()
        });
        let spec = c.inspector().clone().into_spec();
        for round in 0..2 {
            let mut out = vec![0.0; 30];
            let outcome = rt.submit(Job::looped(&spec, &c, &mut out)).unwrap();
            assert_eq!(outcome.cached, round > 0, "round {round}");
            assert_eq!(out, expect, "round {round} ({:?})", outcome.policy);
        }
        assert_eq!(rt.stats().loops.builds, 1, "one plan for the structure");
    }

    /// Figure 8: the sparse row substitution `y(i) = rhs(i) − Σ a(j)·y(ija(j))`.
    #[test]
    fn figure8_triangular_solve_through_the_transformer() {
        use rtpl_sparse::gen::laplacian_5pt;
        use rtpl_sparse::triangular::{solve_lower, Diag};
        let a = laplacian_5pt(7, 6);
        let l = a.strict_lower();
        let n = l.nrows();
        let rhs: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.2).sin()).collect();

        // Build the list-of-lists view of the strictly-lower structure.
        let ija: Vec<Vec<usize>> = (0..n)
            .map(|i| l.row_indices(i).iter().map(|&c| c as usize).collect())
            .collect();
        let avals: Vec<Vec<f64>> = (0..n).map(|i| l.row_values(i).to_vec()).collect();

        let program = LoopProgram {
            n,
            // y(i) = rhs(i) − Σ a(i,j)·y(ija(i,j))
            ops: vec![
                Op::PushData("rhs"),
                Op::PushListSum {
                    targets: "ija",
                    coeffs: Some("a"),
                },
                Op::Sub,
            ],
        };
        let mut env = Env {
            xold: vec![0.0; n],
            ..Default::default()
        };
        // The untransformed loop by hand: the inner sum first, then the
        // subtraction.
        let mut by_hand = vec![0.0; n];
        for i in 0..n {
            let mut acc = 0.0;
            for (&j, &a) in ija[i].iter().zip(&avals[i]) {
                acc += a * by_hand[j];
            }
            by_hand[i] = rhs[i] - acc;
        }
        env.data.insert("rhs", rhs.clone());
        env.index_lists.insert("ija", ija);
        env.coeff_lists.insert("a", avals);
        let c = compile(program, env).unwrap();

        // Wavefronts must match the mesh anti-diagonals.
        assert_eq!(c.inspector().num_wavefronts(), 7 + 6 - 1);

        // Bitwise identical to the untransformed loop (same summation
        // order) under every sorting and kind...
        sweep(&c, 2, &by_hand);
        let got = sequential_reference(&c);
        // ...and equal to the library triangular solve up to roundoff (the
        // inner-sum association differs; the unscaled Laplacian factor
        // amplifies, so compare relatively).
        let mut expect = vec![0.0; n];
        solve_lower(&l, &rhs, Diag::Unit, &mut expect).unwrap();
        let scale = expect.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            assert!(
                (got[i] - expect[i]).abs() <= 1e-12 * scale,
                "row {i}: {} vs {}",
                got[i],
                expect[i]
            );
        }
    }

    /// Figure 6: the nested loop `y(i) = y(i) + temp·Σ_j y(g(i,j))`.
    #[test]
    fn figure6_nested_loop_through_the_transformer() {
        let n = 20usize;
        let g: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                (0..(i % 3))
                    .map(|j| (i + j * 7 + 1) % n) // mixture of < i and >= i
                    .collect()
            })
            .collect();
        let temp: Vec<f64> = (0..n).map(|i| 0.1 + (i % 5) as f64 * 0.01).collect();
        let xold: Vec<f64> = (0..n).map(|i| (i as f64) - 5.0).collect();
        let program = LoopProgram {
            n,
            // x(i) = xold(i) + temp(i) * Σ_j x(g(i,j))
            ops: vec![
                Op::PushData("y0"),
                Op::PushData("temp"),
                Op::PushListSum {
                    targets: "g",
                    coeffs: None,
                },
                Op::Mul,
                Op::Add,
            ],
        };
        let mut env = Env {
            xold: xold.clone(),
            ..Default::default()
        };
        // The untransformed loop by hand.
        let mut expect = vec![0.0; n];
        for i in 0..n {
            let mut acc = 0.0;
            for &t in &g[i] {
                acc += if t < i { expect[t] } else { xold[t] };
            }
            expect[i] = xold[i] + temp[i] * acc;
        }
        env.data.insert("temp", temp);
        env.data.insert("y0", xold);
        env.index_lists.insert("g", g);
        let c = compile(program, env).unwrap();
        assert_eq!(sequential_reference(&c), expect);
        sweep(&c, 3, &expect);
    }

    #[test]
    fn arithmetic_ops_evaluate_correctly() {
        // x(i) = -(2 − xold(i)) · 3  exercises Const/Sub/Neg/Mul.
        let n = 4usize;
        let xold: Vec<f64> = vec![1.0, 5.0, -2.0, 0.0];
        let program = LoopProgram {
            n,
            ops: vec![
                Op::PushConst(2.0),
                Op::PushData("x0"),
                Op::Sub,
                Op::Neg,
                Op::PushConst(3.0),
                Op::Mul,
            ],
        };
        let mut env = Env {
            xold: xold.clone(),
            ..Default::default()
        };
        env.data.insert("x0", xold.clone());
        let c = compile(program, env).unwrap();
        assert_eq!(c.inspector().num_wavefronts(), 1, "no dependences at all");
        let got = sequential_reference(&c);
        let expect: Vec<f64> = xold.iter().map(|&v| -(2.0 - v) * 3.0).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn validation_catches_unknown_arrays() {
        let program = LoopProgram {
            n: 3,
            ops: vec![Op::PushData("nope")],
        };
        let env = Env {
            xold: vec![0.0; 3],
            ..Default::default()
        };
        assert_eq!(
            compile(program, env).unwrap_err(),
            TransformError::UnknownArray("nope")
        );
    }

    #[test]
    fn validation_catches_stack_errors() {
        let env = Env {
            xold: vec![0.0; 2],
            ..Default::default()
        };
        let underflow = LoopProgram {
            n: 2,
            ops: vec![Op::PushConst(1.0), Op::Add],
        };
        assert!(matches!(
            compile(underflow, env.clone()),
            Err(TransformError::BadProgram(_))
        ));
        let leftover = LoopProgram {
            n: 2,
            ops: vec![Op::PushConst(1.0), Op::PushConst(2.0)],
        };
        assert!(matches!(
            compile(leftover, env),
            Err(TransformError::BadProgram(_))
        ));
    }

    #[test]
    fn programs_deeper_than_the_stack_are_refused() {
        // `1 + (1 + (1 + …))` with every constant pushed first: depth k.
        let nested = |k: usize| LoopProgram {
            n: 2,
            ops: std::iter::repeat_n(Op::PushConst(1.0), k)
                .chain(std::iter::repeat_n(Op::Add, k - 1))
                .collect(),
        };
        let env = Env {
            xold: vec![0.0; 2],
            ..Default::default()
        };
        let deepest = compile(nested(MAX_DEPTH), env.clone()).unwrap();
        assert_eq!(sequential_reference(&deepest), vec![MAX_DEPTH as f64; 2]);
        assert!(matches!(
            compile(nested(MAX_DEPTH + 1), env),
            Err(TransformError::BadProgram(_))
        ));
    }

    #[test]
    fn validation_catches_out_of_bounds_index_array() {
        let program = LoopProgram {
            n: 3,
            ops: vec![Op::PushX("ia")],
        };
        let mut env = Env {
            xold: vec![0.0; 3],
            ..Default::default()
        };
        env.index_arrays.insert("ia", vec![0, 9, 1]);
        assert_eq!(
            compile(program, env).unwrap_err(),
            TransformError::IndexOutOfBounds { name: "ia", at: 1 }
        );
    }

    #[test]
    fn validation_catches_length_mismatch() {
        let program = LoopProgram {
            n: 4,
            ops: vec![Op::PushData("d")],
        };
        let mut env = Env {
            xold: vec![0.0; 4],
            ..Default::default()
        };
        env.data.insert("d", vec![1.0; 3]);
        assert!(matches!(
            compile(program, env).unwrap_err(),
            TransformError::BadLength { name: "d", .. }
        ));
    }
}

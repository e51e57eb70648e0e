//! Host-speed probe: a fixed reference load timed around the measured
//! work, so host costs can be reported at one reference host speed.
//!
//! The shared host's own speed drifts: over minutes (a fixed CPU loop
//! took 0.26–0.45 s of CPU time with no steal at all), and in bursts of
//! a fraction of a second. The process CPU clock removes steal but not
//! this drift, and across ten runs spread over an hour the drift is
//! larger than any bound a regression check can use. So measured work is
//! bracketed by two probes, and its host cost is scaled by `REFERENCE_S`
//! over the mean of the two: every pass (its set-up and timed phase),
//! and in `kernel_calls` every call, whose small calls otherwise follow
//! the sub-second bursts. A program change cannot move the probe: it is
//! the benchmark's own code and calls nothing in the repository.
//!
//! The load is a small tree-walking interpreter: boxed expression nodes
//! evaluated per item, with variables looked up by name in a hash map.
//! It tracks the drift of the simulator's interpreter-heavy paths much
//! more closely than a pointer chase or an arithmetic loop does.

use std::collections::HashMap;

use crate::cpu;

/// CPU seconds of one probe at the reference host speed, about what it
/// takes on a 2.0 GHz Xeon vCPU. Reported times are host times on a
/// host where a probe takes exactly this long.
pub const REFERENCE_S: f64 = 0.0006;

/// Repetitions per probe; the probe is their median, so a single
/// interrupt or a cache refill after a large call does not move it.
const REPS: usize = 3;
/// Items each repetition evaluates the tree over.
const ITEMS: usize = 500;
const VARS: [&str; 4] = ["x", "y", "rate", "scale"];

enum Expr {
    Const(f64),
    Var(&'static str),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Sqrt(Box<Expr>),
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    fn eval(&self, env: &HashMap<String, f64>) -> f64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(v) => env[*v],
            Expr::Add(a, b) => a.eval(env) + b.eval(env),
            Expr::Mul(a, b) => a.eval(env) * b.eval(env),
            Expr::Sqrt(a) => a.eval(env).abs().sqrt(),
            Expr::Select(c, a, b) => {
                if c.eval(env) < 0.5 {
                    a.eval(env)
                } else {
                    b.eval(env)
                }
            }
        }
    }

    /// A fixed pseudo-random tree of the given depth.
    fn tree(depth: u32, state: &mut u64) -> Box<Expr> {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = *state >> 33;
        if depth == 0 {
            return Box::new(if r.is_multiple_of(3) {
                Expr::Const((r % 1_000) as f64 / 1_000.0)
            } else {
                Expr::Var(VARS[(r % VARS.len() as u64) as usize])
            });
        }
        let mut sub = || Expr::tree(depth - 1, state);
        Box::new(match r % 4 {
            0 => Expr::Add(sub(), sub()),
            1 => Expr::Mul(sub(), sub()),
            2 => Expr::Sqrt(sub()),
            _ => Expr::Select(sub(), sub(), sub()),
        })
    }
}

/// The reference load, built once per run.
pub struct Probe {
    tree: Box<Expr>,
    env: HashMap<String, f64>,
    out: Vec<f64>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            tree: Expr::tree(7, &mut 7),
            env: VARS.iter().map(|v| ((*v).to_owned(), 0.0)).collect(),
            out: Vec::with_capacity(ITEMS),
        }
    }

    fn rep(&mut self) -> f64 {
        self.out.clear();
        for i in 0..ITEMS {
            let x = i as f64 / ITEMS as f64;
            for (k, v) in VARS.iter().zip([x, 1.0 - x, 0.02, 2.0]) {
                *self.env.get_mut(*k).expect("bound") = v;
            }
            let v = self.tree.eval(&self.env);
            self.out.push(v);
        }
        self.out.iter().sum()
    }

    /// CPU seconds of one probe: the median of `REPS` repetitions.
    pub fn time(&mut self) -> f64 {
        let mut reps = [0.0; REPS];
        for r in &mut reps {
            let c = cpu::now();
            std::hint::black_box(self.rep());
            *r = (cpu::now() - c).as_secs_f64();
        }
        reps.sort_by(f64::total_cmp);
        reps[REPS / 2]
    }

    /// The factor that takes host costs measured between two probes to
    /// the reference host speed.
    pub fn factor(before: f64, after: f64) -> f64 {
        REFERENCE_S / ((before + after) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic_and_takes_time() {
        let (mut a, mut b) = (Probe::new(), Probe::new());
        assert_eq!(a.rep().to_bits(), b.rep().to_bits());
        assert!(a.time() > 0.0);
    }
}

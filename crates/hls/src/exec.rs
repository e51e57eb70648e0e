//! Kernel execution: each kernel is lowered once into a slot-resolved
//! register program, and [`KernelArgs::run`] executes that program.
//!
//! The same IR the estimator costs is executed here, so a kernel run "in
//! hardware" by the simulation produces exactly the bytes the software
//! path produces. Array arguments are `Vec<f64>` buffers bound by name;
//! scalars are `f64`.
//!
//! [`Kernel::new`](crate::ir::Kernel::new) lowers the body once: every
//! scalar name becomes a register slot, every array name an index into
//! the buffers bound for a call, every literal a preloaded constant
//! register. A call resolves those names in the [`KernelArgs`] maps once,
//! then runs a flat instruction stream that allocates nothing per item.
//! Execution order, errors and the partial writes left behind by an
//! error are those of a direct recursive evaluation of the tree: operands
//! left to right, a `Store` checks its target's writability, then
//! evaluates index, then value, then bounds (DESIGN.md §16).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::ir::{BinOp, Expr, Param, ParamKind, Stmt, UnOp};

/// A runtime value (everything is numeric in the kernel language).
pub type Value = f64;

/// Errors raised during kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecKernelError {
    /// An argument required by the signature was not bound.
    MissingArg {
        /// Parameter name.
        name: String,
    },
    /// A name was used but never defined.
    UnknownName {
        /// The offending name.
        name: String,
    },
    /// An array index fell outside the bound buffer.
    IndexOutOfBounds {
        /// Array name.
        array: String,
        /// The evaluated index.
        index: i64,
        /// The buffer length.
        len: usize,
    },
    /// A write targeted a read-only (`in`) array.
    WriteToInput {
        /// Array name.
        array: String,
    },
    /// An array index or a loop bound evaluated to NaN or ±∞.
    NonFinite {
        /// What was non-finite, e.g. "index into `o`" or "end of loop `i`".
        what: String,
    },
}

impl fmt::Display for ExecKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecKernelError::MissingArg { name } => write!(f, "argument `{name}` not bound"),
            ExecKernelError::UnknownName { name } => write!(f, "unknown name `{name}`"),
            ExecKernelError::IndexOutOfBounds { array, index, len } => {
                write!(f, "index {index} out of bounds for `{array}` (len {len})")
            }
            ExecKernelError::WriteToInput { array } => {
                write!(f, "kernel writes read-only input `{array}`")
            }
            ExecKernelError::NonFinite { what } => write!(f, "non-finite {what}"),
        }
    }
}

impl Error for ExecKernelError {}

/// Argument bindings for one kernel invocation.
///
/// # Example
///
/// ```
/// use ecoscale_hls::{parse_kernel, KernelArgs};
///
/// let k = parse_kernel(
///     "kernel scale(in float a[], out float b[], float f, int n) {
///          for (i in 0 .. n) { b[i] = f * a[i]; }
///      }",
/// )?;
/// let mut args = KernelArgs::new();
/// args.bind_array("a", vec![1.0, 2.0, 3.0]);
/// args.bind_array("b", vec![0.0; 3]);
/// args.bind_scalar("f", 10.0);
/// args.bind_scalar("n", 3.0);
/// args.run(&k)?;
/// assert_eq!(args.array("b").unwrap(), &[10.0, 20.0, 30.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct KernelArgs {
    arrays: HashMap<String, Vec<Value>>,
    scalars: HashMap<String, Value>,
}

impl KernelArgs {
    /// Creates an empty binding set.
    pub fn new() -> KernelArgs {
        KernelArgs::default()
    }

    /// Binds an array buffer, replacing any previous binding.
    pub fn bind_array(&mut self, name: &str, data: Vec<Value>) -> &mut Self {
        self.arrays.insert(name.to_owned(), data);
        self
    }

    /// Binds a scalar.
    pub fn bind_scalar(&mut self, name: &str, v: Value) -> &mut Self {
        self.scalars.insert(name.to_owned(), v);
        self
    }

    /// Reads back an array.
    pub fn array(&self, name: &str) -> Option<&[Value]> {
        self.arrays.get(name).map(|v| v.as_slice())
    }

    /// Reads back a scalar binding.
    pub fn scalar(&self, name: &str) -> Option<Value> {
        self.scalars.get(name).copied()
    }

    /// Takes ownership of an array buffer.
    pub fn take_array(&mut self, name: &str) -> Option<Vec<Value>> {
        self.arrays.remove(name)
    }

    /// Runs `kernel` against these bindings, mutating the bound output
    /// arrays in place. Scalars the body assigns, parameters included,
    /// are call-local: the bindings keep their values.
    ///
    /// # Errors
    ///
    /// Any [`ExecKernelError`]. After an error the arrays keep the writes
    /// made before it.
    pub fn run(&mut self, kernel: &crate::ir::Kernel) -> Result<(), ExecKernelError> {
        for p in kernel.params() {
            let bound = if p.is_array() {
                self.arrays.contains_key(&p.name)
            } else {
                self.scalars.contains_key(&p.name)
            };
            if !bound {
                return Err(ExecKernelError::MissingArg {
                    name: p.name.clone(),
                });
            }
        }
        kernel.program().run(&mut self.arrays, &self.scalars)
    }
}

/// A register index.
type Reg = u32;

/// One instruction. Binary and unary operations write their first
/// register from the others; arrays are indices into the call's buffers.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(Reg, Reg, Reg),
    Sub(Reg, Reg, Reg),
    Mul(Reg, Reg, Reg),
    Div(Reg, Reg, Reg),
    Min(Reg, Reg, Reg),
    Max(Reg, Reg, Reg),
    Rem(Reg, Reg, Reg),
    Lt(Reg, Reg, Reg),
    Le(Reg, Reg, Reg),
    Gt(Reg, Reg, Reg),
    Ge(Reg, Reg, Reg),
    Eq(Reg, Reg, Reg),
    And(Reg, Reg, Reg),
    Or(Reg, Reg, Reg),
    Neg(Reg, Reg),
    Sqrt(Reg, Reg),
    Exp(Reg, Reg),
    Log(Reg, Reg),
    Abs(Reg, Reg),
    Floor(Reg, Reg),
    Not(Reg, Reg),
    Mov(Reg, Reg),
    /// `dst = array[index]`.
    Load(Reg, u32, Reg),
    /// `array[index] = value`.
    Store(u32, Reg, Reg),
    /// Refuses a non-finite store index before the value is evaluated
    /// (emitted only when evaluating the value can fail).
    CheckIndex(u32, Reg),
    /// The same for a loop's start, before its end is evaluated.
    CheckStart(u32),
    /// Fails unless the scalar slot holds a value.
    Need(Reg),
    /// Records that the scalar slot holds a value.
    Mark(Reg),
    WriteToInput(u32),
    /// Jumps when the register is zero (false).
    JumpIfZero(Reg, u32),
    Jump(u32),
    /// Enters loop `n` (see [`LoopInfo`]) or skips it.
    Enter(u32),
    /// Advances loop `n`, jumping back into its body while trips remain.
    Next(u32),
    Halt,
}

/// Where a loop keeps its variable, bounds and targets.
#[derive(Clone, Copy)]
struct LoopInfo {
    var: Reg,
    start: Reg,
    end: Reg,
    /// First instruction of the body proper (after the entry mark).
    body: u32,
    /// First instruction after the loop.
    exit: u32,
}

/// The compact error carried out of the executor.
#[derive(Clone, Copy)]
enum Fault {
    UnknownScalar(Reg),
    UnknownArray(u32),
    Bounds { array: u32, index: i64, len: usize },
    WriteToInput(u32),
    NonFiniteIndex(u32),
    NonFiniteStart(u32),
    NonFiniteEnd(u32),
}

/// A kernel body lowered to register code.
///
/// Registers are laid out as scalar slots, then constants, then
/// expression temporaries. Scalar slots `0..k` are the kernel's `k`
/// scalar parameters in declaration order.
pub(crate) struct Program {
    code: Vec<Op>,
    loops: Vec<LoopInfo>,
    /// The name of each scalar slot.
    scalars: Vec<String>,
    /// Slots whose initial binding can be observed: the scalar
    /// parameters and every slot that may be read before assignment.
    bind: Vec<Reg>,
    consts: Vec<f64>,
    regs: usize,
    arrays: Vec<String>,
}

impl Program {
    /// Lowers a kernel body. Lowering runs twice: the first pass finds
    /// the slots that may be read before assignment, the second emits
    /// the definedness marks for exactly those slots.
    pub(crate) fn lower(params: &[Param], body: &[Stmt]) -> Program {
        let mut names = Names::default();
        for p in params {
            if p.is_array() {
                names.array(&p.name);
            } else {
                names.scalar(&p.name);
            }
        }
        let scalar_params = names.scalars.len();
        names.block(body);
        let read_only: Vec<u32> = params
            .iter()
            .filter(|p| p.kind == ParamKind::ArrayIn)
            .map(|p| names.array(&p.name))
            .collect();
        let loop_only: Vec<bool> = (0..names.scalars.len())
            .map(|s| s >= scalar_params && !names.assigned[s])
            .collect();
        let pass = |tracked: &[Reg]| {
            let mut assigned = vec![false; names.scalars.len()];
            assigned[..scalar_params].fill(true);
            let mut l = Lowering {
                names: &names,
                read_only: &read_only,
                loop_only: &loop_only,
                tracked,
                needed: Vec::new(),
                assigned,
                code: Vec::new(),
                loops: Vec::new(),
                temp_base: (names.scalars.len() + names.consts.len()) as Reg,
                top: 0,
                temps: 0,
            };
            l.block(body);
            l.code.push(Op::Halt);
            (l.code, l.loops, l.needed, l.temps)
        };
        let (_, _, needed, _) = pass(&[]);
        let (code, loops, second, temps) = pass(&needed);
        debug_assert_eq!(needed, second, "both passes read the same slots unassigned");
        let mut bind: Vec<Reg> = (0..scalar_params as Reg).collect();
        bind.extend(&needed);
        Program {
            code,
            loops,
            bind,
            regs: names.scalars.len() + names.consts.len() + temps,
            scalars: names.scalars,
            consts: names.consts,
            arrays: names.arrays,
        }
    }

    /// Binds the call's names to slots once, then executes.
    fn run(
        &self,
        arrays: &mut HashMap<String, Vec<Value>>,
        scalars: &HashMap<String, Value>,
    ) -> Result<(), ExecKernelError> {
        let mut regs = vec![0.0; self.regs];
        let mut defined = vec![false; self.scalars.len()];
        for &slot in &self.bind {
            if let Some(&v) = scalars.get(&self.scalars[slot as usize]) {
                regs[slot as usize] = v;
                defined[slot as usize] = true;
            }
        }
        let base = self.scalars.len();
        regs[base..base + self.consts.len()].copy_from_slice(&self.consts);
        let mut bufs: Vec<&mut [f64]> = Vec::with_capacity(self.arrays.len());
        bufs.resize_with(self.arrays.len(), Default::default);
        let mut bound = vec![false; self.arrays.len()];
        for (name, buf) in arrays.iter_mut() {
            if let Some(i) = self.arrays.iter().position(|a| a == name) {
                bufs[i] = buf.as_mut_slice();
                bound[i] = true;
            }
        }
        let mut counters = vec![(0i64, 0i64); self.loops.len()];
        self.exec(&mut regs, &mut defined, &mut counters, &mut bufs, &bound)
            .map_err(|f| self.error(f))
    }

    fn exec(
        &self,
        regs: &mut [f64],
        defined: &mut [bool],
        counters: &mut [(i64, i64)],
        bufs: &mut [&mut [f64]],
        bound: &[bool],
    ) -> Result<(), Fault> {
        let code = self.code.as_slice();
        let mut pc = 0usize;
        macro_rules! bin {
            ($d:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {{
                let ($x, $y) = (regs[$a as usize], regs[$b as usize]);
                regs[$d as usize] = $e;
            }};
        }
        macro_rules! un {
            ($d:expr, $a:expr, |$x:ident| $e:expr) => {{
                let $x = regs[$a as usize];
                regs[$d as usize] = $e;
            }};
        }
        loop {
            let op = code[pc];
            pc += 1;
            match op {
                Op::Add(d, a, b) => bin!(d, a, b, |x, y| x + y),
                Op::Sub(d, a, b) => bin!(d, a, b, |x, y| x - y),
                Op::Mul(d, a, b) => bin!(d, a, b, |x, y| x * y),
                Op::Div(d, a, b) => bin!(d, a, b, |x, y| x / y),
                Op::Min(d, a, b) => bin!(d, a, b, |x, y| x.min(y)),
                Op::Max(d, a, b) => bin!(d, a, b, |x, y| x.max(y)),
                Op::Rem(d, a, b) => bin!(d, a, b, |x, y| x % y),
                Op::Lt(d, a, b) => bin!(d, a, b, |x, y| (x < y) as u8 as f64),
                Op::Le(d, a, b) => bin!(d, a, b, |x, y| (x <= y) as u8 as f64),
                Op::Gt(d, a, b) => bin!(d, a, b, |x, y| (x > y) as u8 as f64),
                Op::Ge(d, a, b) => bin!(d, a, b, |x, y| (x >= y) as u8 as f64),
                Op::Eq(d, a, b) => bin!(d, a, b, |x, y| (x == y) as u8 as f64),
                Op::And(d, a, b) => bin!(d, a, b, |x, y| (x != 0.0 && y != 0.0) as u8 as f64),
                Op::Or(d, a, b) => bin!(d, a, b, |x, y| (x != 0.0 || y != 0.0) as u8 as f64),
                Op::Neg(d, a) => un!(d, a, |x| -x),
                Op::Sqrt(d, a) => un!(d, a, |x| x.sqrt()),
                Op::Exp(d, a) => un!(d, a, |x| x.exp()),
                Op::Log(d, a) => un!(d, a, |x| x.ln()),
                Op::Abs(d, a) => un!(d, a, |x| x.abs()),
                Op::Floor(d, a) => un!(d, a, |x| x.floor()),
                Op::Not(d, a) => un!(d, a, |x| (x == 0.0) as u8 as f64),
                Op::Mov(d, a) => un!(d, a, |x| x),
                Op::Load(d, array, i) => {
                    let buf = &bufs[array as usize];
                    let x = regs[i as usize];
                    regs[d as usize] = if x >= 0.0 && x < buf.len() as f64 {
                        buf[x as usize]
                    } else {
                        buf[slow_index(x, array, buf.len(), bound)?]
                    };
                }
                Op::Store(array, i, v) => {
                    let buf = &mut bufs[array as usize];
                    let x = regs[i as usize];
                    let at = if x >= 0.0 && x < buf.len() as f64 {
                        x as usize
                    } else {
                        slow_index(x, array, buf.len(), bound)?
                    };
                    buf[at] = regs[v as usize];
                }
                Op::CheckIndex(array, i) => {
                    if !regs[i as usize].is_finite() {
                        return Err(Fault::NonFiniteIndex(array));
                    }
                }
                Op::CheckStart(n) => {
                    if !regs[self.loops[n as usize].start as usize].is_finite() {
                        return Err(Fault::NonFiniteStart(n));
                    }
                }
                Op::Need(s) => {
                    if !defined[s as usize] {
                        return Err(Fault::UnknownScalar(s));
                    }
                }
                Op::Mark(s) => defined[s as usize] = true,
                Op::WriteToInput(array) => return Err(Fault::WriteToInput(array)),
                Op::JumpIfZero(c, to) => {
                    if regs[c as usize] == 0.0 {
                        pc = to as usize;
                    }
                }
                Op::Jump(to) => pc = to as usize,
                Op::Enter(n) => {
                    let l = self.loops[n as usize];
                    let (s, e) = (regs[l.start as usize], regs[l.end as usize]);
                    if !s.is_finite() {
                        return Err(Fault::NonFiniteStart(n));
                    }
                    if !e.is_finite() {
                        return Err(Fault::NonFiniteEnd(n));
                    }
                    let (s, e) = (s as i64, e as i64);
                    if s < e {
                        counters[n as usize] = (s, e);
                        regs[l.var as usize] = s as f64;
                    } else {
                        pc = l.exit as usize;
                    }
                }
                Op::Next(n) => {
                    let l = &self.loops[n as usize];
                    let c = &mut counters[n as usize];
                    c.0 += 1;
                    if c.0 < c.1 {
                        regs[l.var as usize] = c.0 as f64;
                        pc = l.body as usize;
                    }
                }
                Op::Halt => return Ok(()),
            }
        }
    }

    fn error(&self, f: Fault) -> ExecKernelError {
        let loop_var = |n: u32| &self.scalars[self.loops[n as usize].var as usize];
        match f {
            Fault::UnknownScalar(s) => ExecKernelError::UnknownName {
                name: self.scalars[s as usize].clone(),
            },
            Fault::UnknownArray(a) => ExecKernelError::UnknownName {
                name: self.arrays[a as usize].clone(),
            },
            Fault::Bounds { array, index, len } => ExecKernelError::IndexOutOfBounds {
                array: self.arrays[array as usize].clone(),
                index,
                len,
            },
            Fault::WriteToInput(a) => ExecKernelError::WriteToInput {
                array: self.arrays[a as usize].clone(),
            },
            Fault::NonFiniteIndex(a) => ExecKernelError::NonFinite {
                what: format!("index into `{}`", self.arrays[a as usize]),
            },
            Fault::NonFiniteStart(n) => ExecKernelError::NonFinite {
                what: format!("start of loop `{}`", loop_var(n)),
            },
            Fault::NonFiniteEnd(n) => ExecKernelError::NonFinite {
                what: format!("end of loop `{}`", loop_var(n)),
            },
        }
    }
}

/// An index outside the fast path's `0 <= x < len`: refuse it in the
/// order finite, bound, in range, or return the element it truncates to
/// (`-0.5` reads element 0).
#[cold]
#[inline(never)]
fn slow_index(x: f64, array: u32, len: usize, bound: &[bool]) -> Result<usize, Fault> {
    if !x.is_finite() {
        return Err(Fault::NonFiniteIndex(array));
    }
    if !bound[array as usize] {
        return Err(Fault::UnknownArray(array));
    }
    let index = x as i64;
    if index < 0 || index as usize >= len {
        return Err(Fault::Bounds { array, index, len });
    }
    Ok(index as usize)
}

/// The name tables: scalar slots, arrays and constants, in order of first
/// appearance.
#[derive(Default)]
struct Names {
    scalars: Vec<String>,
    /// Per scalar slot: whether some `Assign` targets it.
    assigned: Vec<bool>,
    arrays: Vec<String>,
    consts: Vec<f64>,
}

impl Names {
    fn scalar(&mut self, name: &str) -> Reg {
        let slot = intern(&mut self.scalars, name);
        self.assigned.resize(self.scalars.len(), false);
        slot
    }

    fn array(&mut self, name: &str) -> u32 {
        intern(&mut self.arrays, name)
    }

    fn slot(&self, name: &str) -> Reg {
        find(&self.scalars, name)
    }

    fn array_id(&self, name: &str) -> u32 {
        find(&self.arrays, name)
    }

    /// The constant's index among the constants (by bit pattern).
    fn constant(&self, v: f64) -> usize {
        self.consts
            .iter()
            .position(|c| c.to_bits() == v.to_bits())
            .expect("every constant is interned before emission")
    }

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Assign { var, value } => {
                    self.expr(value);
                    let slot = self.scalar(var);
                    self.assigned[slot as usize] = true;
                }
                Stmt::Store {
                    array,
                    index,
                    value,
                } => {
                    self.array(array);
                    self.expr(index);
                    self.expr(value);
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    body,
                } => {
                    self.expr(start);
                    self.expr(end);
                    self.scalar(var);
                    self.block(body);
                }
                Stmt::If { cond, then, els } => {
                    self.expr(cond);
                    self.block(then);
                    self.block(els);
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        e.visit(&mut |e| match e {
            Expr::Const(v) if !self.consts.iter().any(|c| c.to_bits() == v.to_bits()) => {
                self.consts.push(*v);
            }
            Expr::Var(name) => {
                self.scalar(name);
            }
            Expr::Load { array, .. } => {
                self.array(array);
            }
            _ => {}
        });
    }
}

fn intern(table: &mut Vec<String>, name: &str) -> u32 {
    match table.iter().position(|s| s == name) {
        Some(i) => i as u32,
        None => {
            table.push(name.to_owned());
            (table.len() - 1) as u32
        }
    }
}

fn find(table: &[String], name: &str) -> u32 {
    table
        .iter()
        .position(|s| s == name)
        .expect("every name is interned before emission") as u32
}

/// One emission pass over a kernel body.
struct Lowering<'a> {
    names: &'a Names,
    read_only: &'a [u32],
    /// Slots only loops assign: where definitely assigned, they hold a
    /// finite integer.
    loop_only: &'a [bool],
    /// Slots to mark on assignment (found by the previous pass).
    tracked: &'a [Reg],
    /// Slots read somewhere they may be unassigned (found by this pass).
    needed: Vec<Reg>,
    /// Definitely-assigned slots at the current point.
    assigned: Vec<bool>,
    code: Vec<Op>,
    loops: Vec<LoopInfo>,
    /// First temporary register, temporaries in use, and their peak.
    temp_base: Reg,
    top: Reg,
    temps: usize,
}

impl Lowering<'_> {
    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        let mark = self.top;
        match s {
            Stmt::Assign { var, value } => {
                let slot = self.names.slot(var);
                self.expr_into(value, slot);
                self.assign(slot);
            }
            Stmt::Store {
                array,
                index,
                value,
            } => {
                let array = self.names.array_id(array);
                if self.read_only.contains(&array) {
                    self.code.push(Op::WriteToInput(array));
                    return;
                }
                let i = self.expr(index, None);
                if !self.finite(index) && self.fallible(value) {
                    self.code.push(Op::CheckIndex(array, i));
                }
                let v = self.expr(value, None);
                self.code.push(Op::Store(array, i, v));
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                let n = self.loops.len() as u32;
                let var = self.names.slot(var);
                let start_reg = self.expr(start, None);
                if !self.finite(start) && self.fallible(end) {
                    self.code.push(Op::CheckStart(n));
                }
                let end_reg = self.expr(end, None);
                self.top = mark;
                self.loops.push(LoopInfo {
                    var,
                    start: start_reg,
                    end: end_reg,
                    body: 0,
                    exit: 0,
                });
                self.code.push(Op::Enter(n));
                let outer = self.assigned.clone();
                self.assign(var);
                let body_pc = self.pc();
                self.block(body);
                self.code.push(Op::Next(n));
                self.assigned = outer;
                let exit = self.pc();
                let l = &mut self.loops[n as usize];
                l.body = body_pc;
                l.exit = exit;
            }
            Stmt::If { cond, then, els } => {
                let c = self.expr(cond, None);
                self.top = mark;
                let skip_then = self.jump(Op::JumpIfZero(c, 0));
                let outer = self.assigned.clone();
                self.block(then);
                let after_then = std::mem::replace(&mut self.assigned, outer);
                if els.is_empty() {
                    self.land(skip_then);
                } else {
                    let skip_els = self.jump(Op::Jump(0));
                    self.land(skip_then);
                    self.block(els);
                    self.land(skip_els);
                }
                for (a, t) in self.assigned.iter_mut().zip(after_then) {
                    *a &= t;
                }
            }
        }
        self.top = mark;
    }

    fn assign(&mut self, slot: Reg) {
        if self.tracked.contains(&slot) {
            self.code.push(Op::Mark(slot));
        }
        self.assigned[slot as usize] = true;
    }

    /// `true` when `e` is statically a finite value.
    fn finite(&self, e: &Expr) -> bool {
        match e {
            Expr::Const(v) => v.is_finite(),
            Expr::Var(name) => {
                let s = self.names.slot(name) as usize;
                self.loop_only[s] && self.assigned[s]
            }
            _ => false,
        }
    }

    /// `true` when evaluating `e` can raise an error.
    fn fallible(&self, e: &Expr) -> bool {
        let mut can_fail = false;
        e.visit(&mut |e| match e {
            Expr::Load { .. } => can_fail = true,
            Expr::Var(name) => can_fail |= !self.assigned[self.names.slot(name) as usize],
            _ => {}
        });
        can_fail
    }

    /// Evaluates `e` into register `d`.
    fn expr_into(&mut self, e: &Expr, d: Reg) {
        let r = self.expr(e, Some(d));
        if r != d {
            self.code.push(Op::Mov(d, r));
        }
    }

    /// Emits code evaluating `e` and returns the register holding it:
    /// `hint` when given and the value is computed, else a slot, a
    /// constant or a fresh temporary. Only the last instruction writes
    /// the result, so `hint` may be a slot the expression reads.
    fn expr(&mut self, e: &Expr, hint: Option<Reg>) -> Reg {
        let mark = self.top;
        match e {
            Expr::Const(v) => (self.names.scalars.len() + self.names.constant(*v)) as Reg,
            Expr::Var(name) => {
                let s = self.names.slot(name);
                if !self.assigned[s as usize] {
                    if !self.needed.contains(&s) {
                        self.needed.push(s);
                    }
                    self.code.push(Op::Need(s));
                }
                s
            }
            Expr::Load { array, index } => {
                let array = self.names.array_id(array);
                let i = self.expr(index, None);
                let d = self.dst(mark, hint);
                self.code.push(Op::Load(d, array, i));
                d
            }
            Expr::Unary(op, a) => {
                let x = self.expr(a, None);
                let d = self.dst(mark, hint);
                let f: fn(Reg, Reg) -> Op = match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Sqrt => Op::Sqrt,
                    UnOp::Exp => Op::Exp,
                    UnOp::Log => Op::Log,
                    UnOp::Abs => Op::Abs,
                    UnOp::Floor => Op::Floor,
                    UnOp::Not => Op::Not,
                };
                self.code.push(f(d, x));
                d
            }
            Expr::Binary(op, a, b) => {
                let x = self.expr(a, None);
                let y = self.expr(b, None);
                let d = self.dst(mark, hint);
                let f: fn(Reg, Reg, Reg) -> Op = match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Min => Op::Min,
                    BinOp::Max => Op::Max,
                    BinOp::Rem => Op::Rem,
                    BinOp::Lt => Op::Lt,
                    BinOp::Le => Op::Le,
                    BinOp::Gt => Op::Gt,
                    BinOp::Ge => Op::Ge,
                    BinOp::Eq => Op::Eq,
                    BinOp::And => Op::And,
                    BinOp::Or => Op::Or,
                };
                self.code.push(f(d, x, y));
                d
            }
            Expr::Select { cond, then, els } => {
                let c = self.expr(cond, None);
                let d = self.dst(mark, hint);
                let skip_then = self.jump(Op::JumpIfZero(c, 0));
                self.expr_into(then, d);
                let skip_els = self.jump(Op::Jump(0));
                self.land(skip_then);
                self.expr_into(els, d);
                self.land(skip_els);
                d
            }
        }
    }

    /// The result register: `hint`, or the first temporary free once the
    /// operands (temporaries from `mark` up) have been read.
    fn dst(&mut self, mark: Reg, hint: Option<Reg>) -> Reg {
        self.top = mark;
        if let Some(d) = hint {
            return d;
        }
        self.top += 1;
        self.temps = self.temps.max(self.top as usize);
        self.temp_base + mark
    }

    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    /// Emits a jump whose target [`Lowering::land`] fills in.
    fn jump(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    fn land(&mut self, at: usize) {
        let here = self.pc();
        match &mut self.code[at] {
            Op::JumpIfZero(_, to) | Op::Jump(to) => *to = here,
            other => unreachable!("patching a non-jump {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_kernel;

    #[test]
    fn vadd_executes() {
        let k = parse_kernel(
            "kernel vadd(in float a[], in float b[], out float c[], int n) {
                 for (i in 0 .. n) { c[i] = a[i] + b[i]; }
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("a", vec![1.0, 2.0, 3.0])
            .bind_array("b", vec![10.0, 20.0, 30.0])
            .bind_array("c", vec![0.0; 3])
            .bind_scalar("n", 3.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("c").unwrap(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn gemm_matches_reference() {
        let k = parse_kernel(
            "kernel gemm(in float a[], in float b[], out float c[], int n) {
                 for (i in 0 .. n) {
                     for (j in 0 .. n) {
                         acc = 0.0;
                         for (kk in 0 .. n) {
                             acc = acc + a[i * n + kk] * b[kk * n + j];
                         }
                         c[i * n + j] = acc;
                     }
                 }
             }",
        )
        .unwrap();
        let n = 4usize;
        let a: Vec<f64> = (0..n * n).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..n * n).map(|i| (i as f64).sin()).collect();
        let mut reference = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                for kk in 0..n {
                    reference[i * n + j] += a[i * n + kk] * b[kk * n + j];
                }
            }
        }
        let mut args = KernelArgs::new();
        args.bind_array("a", a)
            .bind_array("b", b)
            .bind_array("c", vec![0.0; n * n])
            .bind_scalar("n", n as f64);
        args.run(&k).unwrap();
        for (got, want) in args.array("c").unwrap().iter().zip(&reference) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn conditionals_and_intrinsics() {
        let k = parse_kernel(
            "kernel relu_sqrt(inout float a[], int n) {
                 for (i in 0 .. n) {
                     if (a[i] < 0.0) { a[i] = 0.0; } else { a[i] = sqrt(a[i]); }
                 }
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("a", vec![-4.0, 9.0, 16.0])
            .bind_scalar("n", 3.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("a").unwrap(), &[0.0, 3.0, 4.0]);
    }

    #[test]
    fn select_and_logic() {
        let k = parse_kernel(
            "kernel s(out float o[], float x) {
                 o[0] = select(x > 1.0 && x < 3.0, 1.0, 0.0);
                 o[1] = select(x == 2.0 || x == 5.0, 7.0, 8.0);
                 o[2] = !(x > 0.0);
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0; 3]).bind_scalar("x", 2.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("o").unwrap(), &[1.0, 7.0, 0.0]);
    }

    #[test]
    fn missing_argument_detected() {
        let k = parse_kernel("kernel m(in float a[], int n) { x = a[0]; }").unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("a", vec![1.0]);
        let err = args.run(&k).unwrap_err();
        assert_eq!(err, ExecKernelError::MissingArg { name: "n".into() });
    }

    #[test]
    fn bounds_checked() {
        let k = parse_kernel("kernel b(out float o[], int n) { o[n] = 1.0; }").unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0; 2]).bind_scalar("n", 5.0);
        let err = args.run(&k).unwrap_err();
        assert!(matches!(
            err,
            ExecKernelError::IndexOutOfBounds {
                index: 5,
                len: 2,
                ..
            }
        ));
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn negative_index_rejected() {
        let k = parse_kernel("kernel b(out float o[]) { o[0 - 1] = 1.0; }").unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0; 2]);
        assert!(matches!(
            args.run(&k).unwrap_err(),
            ExecKernelError::IndexOutOfBounds { index: -1, .. }
        ));
    }

    #[test]
    fn write_to_input_rejected() {
        let k = parse_kernel("kernel w(in float a[]) { a[0] = 1.0; }").unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("a", vec![1.0]);
        assert_eq!(
            args.run(&k).unwrap_err(),
            ExecKernelError::WriteToInput { array: "a".into() }
        );
    }

    #[test]
    fn unknown_name_detected() {
        let k = parse_kernel("kernel u(out float o[]) { o[0] = ghost; }").unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0]);
        assert_eq!(
            args.run(&k).unwrap_err(),
            ExecKernelError::UnknownName {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn empty_loop_runs_zero_times() {
        let k = parse_kernel(
            "kernel e(out float o[], int n) {
                 o[0] = 0.0;
                 for (i in 0 .. n) { o[0] = o[0] + 1.0; }
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![9.0]).bind_scalar("n", 0.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("o").unwrap(), &[0.0]);
    }

    #[test]
    fn take_array_transfers_ownership() {
        let mut args = KernelArgs::new();
        args.bind_array("x", vec![1.0, 2.0]);
        let v = args.take_array("x").unwrap();
        assert_eq!(v, vec![1.0, 2.0]);
        assert!(args.array("x").is_none());
    }

    fn run_o(src: &str, o: usize) -> (Result<(), ExecKernelError>, Vec<f64>) {
        let k = parse_kernel(src).unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0; o]);
        let r = args.run(&k);
        (r, args.take_array("o").unwrap())
    }

    fn non_finite(what: &str) -> ExecKernelError {
        ExecKernelError::NonFinite { what: what.into() }
    }

    #[test]
    fn nan_store_index_refused() {
        // NaN used to truncate to 0 and write o[0]
        let (r, o) = run_o("kernel f(out float o[]) { o[0.0 / 0.0] = 1.0; }", 2);
        assert_eq!(r.unwrap_err(), non_finite("index into `o`"));
        assert_eq!(o, vec![0.0, 0.0]);
        assert_eq!(
            non_finite("index into `o`").to_string(),
            "non-finite index into `o`"
        );
    }

    #[test]
    fn infinite_load_index_refused() {
        let (r, _) = run_o("kernel f(out float o[]) { o[0] = o[1.0 / 0.0]; }", 2);
        assert_eq!(r.unwrap_err(), non_finite("index into `o`"));
        let (r, _) = run_o("kernel f(out float o[]) { o[0] = o[0.0 - 1.0 / 0.0]; }", 2);
        assert_eq!(r.unwrap_err(), non_finite("index into `o`"));
    }

    #[test]
    fn nan_loop_bound_refused() {
        // a NaN end used to run zero trips
        let (r, o) = run_o(
            "kernel f(out float o[]) { for (i in 0 .. 0.0 / 0.0) { o[0] = 1.0; } }",
            1,
        );
        assert_eq!(r.unwrap_err(), non_finite("end of loop `i`"));
        assert_eq!(o, vec![0.0]);
        let (r, _) = run_o(
            "kernel f(out float o[]) { for (i in 0.0 / 0.0 .. 4) { o[0] = 1.0; } }",
            1,
        );
        assert_eq!(r.unwrap_err(), non_finite("start of loop `i`"));
    }

    #[test]
    fn infinite_loop_bound_refused() {
        // an infinite end used to saturate to i64::MAX and never finish
        let (r, o) = run_o(
            "kernel f(out float o[]) { o[0] = 7.0; for (i in 0 .. 1.0 / 0.0) { o[0] = i; } }",
            1,
        );
        assert_eq!(r.unwrap_err(), non_finite("end of loop `i`"));
        assert_eq!(o, vec![7.0], "writes before the loop stay");
    }

    #[test]
    fn non_finite_start_wins_over_a_failing_end() {
        // the start is refused before the end is evaluated
        let (r, _) = run_o(
            "kernel f(out float o[]) { for (i in 0.0 / 0.0 .. o[9]) { o[0] = 1.0; } }",
            1,
        );
        assert_eq!(r.unwrap_err(), non_finite("start of loop `i`"));
        let (r, _) = run_o("kernel f(out float o[]) { o[0.0 / 0.0] = ghost; }", 1);
        assert_eq!(r.unwrap_err(), non_finite("index into `o`"));
    }

    #[test]
    fn fractional_indices_truncate() {
        let (r, o) = run_o(
            "kernel f(out float o[]) { o[0.0 - 0.5] = 1.0; o[1.9] = 2.0; }",
            2,
        );
        r.unwrap();
        assert_eq!(o, vec![1.0, 2.0]);
    }

    #[test]
    fn locals_loop_variables_and_bindings() {
        let k = parse_kernel(
            "kernel f(out float o[], float x) {
                 x = x + 1.0;
                 for (i in 0 .. 3) { t = i; }
                 o[0] = i;
                 o[1] = x;
                 o[2] = extra;
                 spare[0] = 5.0;
             }",
        )
        .unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0; 3])
            .bind_array("spare", vec![0.0])
            .bind_scalar("x", 1.0)
            .bind_scalar("extra", 9.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("o").unwrap(), &[2.0, 2.0, 9.0]);
        assert_eq!(args.array("spare").unwrap(), &[5.0]);
        assert_eq!(args.scalar("x"), Some(1.0), "params are call-local");
    }

    #[test]
    fn unassigned_reads_fail_only_when_executed() {
        let src = "kernel f(out float o[], float c) {
                 if (c) { t = 1.0; }
                 o[0] = t;
             }";
        let k = parse_kernel(src).unwrap();
        let mut args = KernelArgs::new();
        args.bind_array("o", vec![0.0]).bind_scalar("c", 1.0);
        args.run(&k).unwrap();
        assert_eq!(args.array("o").unwrap(), &[1.0]);
        args.bind_scalar("c", 0.0);
        assert_eq!(
            args.run(&k).unwrap_err(),
            ExecKernelError::UnknownName { name: "t".into() }
        );
        // a loop that runs no trips leaves its variable unassigned
        let (r, _) = run_o(
            "kernel f(out float o[]) { for (i in 3 .. 1) { o[0] = 1.0; } o[0] = i; }",
            1,
        );
        assert_eq!(
            r.unwrap_err(),
            ExecKernelError::UnknownName { name: "i".into() }
        );
    }

    #[test]
    fn unbound_array_fails_after_its_index() {
        let (r, _) = run_o("kernel f(out float o[]) { o[0] = ghost[0]; }", 1);
        assert_eq!(
            r.unwrap_err(),
            ExecKernelError::UnknownName {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn clones_share_one_program() {
        let k = parse_kernel("kernel f(out float o[]) { o[0] = 1.0; }").unwrap();
        let c = k.clone();
        assert!(std::ptr::eq(k.program(), c.program()));
        assert_eq!(k, c);
    }
}

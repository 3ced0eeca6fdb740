//! Bounded-fault exploration of the update pass's failure table.
//!
//! A scripted backend gives chosen ops of one pass an outcome each: a
//! typed error, a panic that loses the payload, or a stall past the I/O
//! deadline that the test then releases as landed or as failed. The
//! explorer runs every single op with every outcome and every pair of ops
//! with every pair of outcomes, in the born pass and in a steady-state
//! pass that re-places evictions (or the first one, where the preset never
//! does), under `mlp_offload()` and `deepspeed_zero3()`: both subgroup
//! orders and both gradient paths.
//!
//! A pass's ops are those of its call, less the reads its update issues
//! for the next pass, plus the reads the call before it issued for it:
//! a fault on one of those surfaces from the pass it belongs to.
//!
//! A schedule that stalls runs its tiers on a `ManualClock`, which a
//! [`Keeper`] moves one deadline on only when nothing but time can move
//! the schedule: so a healthy op always lands, and a stalled op, or one
//! queued behind two, always times out, however loaded the host is.
//!
//! After each schedule the engine is re-driven to success and trained two
//! more passes. It must then match plain in-memory Adam bit for bit, hold
//! every pooled buffer in a resting frame, keep one durable copy per
//! subgroup on the tiers (a delete that failed may leave one more), and
//! answer every call: a schedule that does not finish in time is a hang.
//! A payload lost with no copy of the iteration behind it strands its
//! subgroup instead, and then every later pass must fail, typed. A pass
//! the script does not fault times out only behind a stall it still holds.
//!
//! A released stall finishes on its tier before the test's next call,
//! except a stalled retire-delete or gradient write: the engine carries
//! those past the deadline, and nothing may touch their object until they
//! settle. Such a stall outlives the faulted call if that fails, and every
//! call that succeeds while it is held: it then lands right after the next
//! write of its key on its tier, the order that would delete or overwrite
//! a newer copy. It goes at once when a later call fails (the engine is
//! waiting for it). Two schedules that once lost a newer object that way
//! are pinned below.

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mlp_offload_suite::mlp_aio::{AioConfig, RetryPolicy};
use mlp_offload_suite::mlp_offload::func::{MlpFuncEngine, SharedTier};
use mlp_offload_suite::mlp_offload::policy::ledger::Load;
use mlp_offload_suite::mlp_offload::EngineConfig;
use mlp_offload_suite::mlp_optim::{AdamConfig, SubgroupState};
use mlp_offload_suite::mlp_storage::{Backend, MemBackend};
use mlp_offload_suite::mlp_tensor::{HostBuffer, F16};
use mlp_offload_suite::mlp_trace::{Counter, Gauge, TraceSink};
use mlp_testkit::{ManualClock, Waiters};

/// Subgroups, over two tiers split 2:1 and three host frames: with six,
/// no fixed split ever re-places an eviction.
const M: usize = 8;
const LEN: usize = 8;
const RATIO: [f64; 2] = [2.0, 1.0];
/// I/O workers per tier.
const WORKERS: usize = 2;
/// The I/O deadline of a schedule that stalls an op, on its clock.
const DEADLINE: Duration = Duration::from_millis(20);
/// A schedule that takes longer than this on the wall hangs.
const HANG: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    Read,
    Write,
    Delete,
}

/// One op of the faulted pass: the `nth` of its kind on `key` on `tier`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Op {
    tier: usize,
    kind: Kind,
    key: String,
    nth: usize,
}

impl Op {
    fn state_write(&self) -> bool {
        self.kind == Kind::Write && self.key.contains("/sub")
    }

    /// A retire-delete or a gradient write: a stall of it may outlive a
    /// call (see the module docs).
    fn outlives(&self) -> bool {
        self.kind == Kind::Delete || (self.kind == Kind::Write && self.key.contains("/grad"))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    Error,
    Panic,
    StallLanded,
    StallFailed,
}

impl Fault {
    const ALL: [Fault; 4] = [
        Fault::Error,
        Fault::Panic,
        Fault::StallLanded,
        Fault::StallFailed,
    ];

    fn stalls(self) -> bool {
        matches!(self, Fault::StallLanded | Fault::StallFailed)
    }
}

/// How far the stalls that may outlive a call are let go.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
enum Hold {
    #[default]
    Held,
    /// Each lands after the next write of its key on its tier.
    AfterWrite,
    Released,
}

/// A stalled call that has not finished yet.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Stall {
    tier: usize,
    key: String,
    /// Whether it may outlive a call.
    outlives: bool,
    /// Whether the clock has passed its deadline.
    answered: bool,
}

#[derive(Default)]
struct ScriptState {
    armed: bool,
    /// Until armed: the reads the call before the armed pass issues for
    /// it, as `(tier, key, reads of the key on the tier to let by first)`.
    leads: Vec<(usize, String, usize)>,
    seen: HashMap<(usize, Kind, String), usize>,
    /// Every op seen while armed, in the order the tiers saw them.
    log: Vec<Op>,
    faults: Vec<(Op, Fault)>,
    fired: Vec<(Op, Fault)>,
    released: bool,
    hold: Hold,
    /// The order stalls go in, as `(tier, key)`: one listed goes only once
    /// every one listed before it has finished. Unlisted ones go at once.
    order: Vec<(usize, String)>,
    stalled: Vec<Stall>,
    /// Keys written on a tier while outliving stalls land after a write.
    written: HashSet<(usize, String)>,
}

impl ScriptState {
    /// Whether `stall` may go.
    fn lets_go(&self, stall: &Stall) -> bool {
        let (tier, key) = (stall.tier, stall.key.as_str());
        let free = match (stall.outlives, self.hold) {
            (false, _) => self.released,
            (true, Hold::Held) => false,
            (true, Hold::AfterWrite) => self.written.contains(&(tier, key.to_string())),
            (true, Hold::Released) => true,
        };
        let listed = self
            .order
            .iter()
            .position(|(t, k)| (*t, &k[..]) == (tier, key));
        let before = &self.order[..listed.unwrap_or(0)];
        let stalled =
            |(t, k): &(usize, String)| (self.stalled.iter()).any(|s| (s.tier, &s.key) == (*t, k));
        free && !before.iter().any(stalled)
    }

    /// Whether a stall is held.
    fn holds(&self) -> bool {
        self.stalled.iter().any(|s| !self.lets_go(s))
    }

    /// Whether an op before the armed pass is a read issued for it.
    fn takes_lead(&mut self, tier: usize, kind: Kind, key: &str) -> bool {
        let lead = |(t, k, _): &(usize, String, usize)| (*t, &k[..]) == (tier, key);
        let Some(at) = self
            .leads
            .iter()
            .position(lead)
            .filter(|_| kind == Kind::Read)
        else {
            return false;
        };
        if self.leads[at].2 > 0 {
            self.leads[at].2 -= 1;
            return false;
        }
        self.leads.remove(at);
        true
    }
}

/// One schedule's faults, shared by both tiers.
#[derive(Default)]
struct Script {
    state: Mutex<ScriptState>,
    release: Condvar,
}

impl Script {
    fn new(faults: &[(Op, Fault)]) -> Arc<Self> {
        let script = Script::default();
        script.state.lock().unwrap().faults = faults.to_vec();
        Arc::new(script)
    }

    /// Whether a stall is held.
    fn holds(&self) -> bool {
        self.state.lock().unwrap().holds()
    }

    /// Whether only time can move the schedule on, and something waits
    /// for it. On each tier, every I/O worker sits in a held stall; or
    /// every op the tier has not answered is a held stall, and so is every
    /// op the deadline answered that has not finished (one queued behind a
    /// stall just let go runs without the clock). And an op is unanswered,
    /// or a thread besides the tiers' watchdogs waits on the clock. The
    /// clock then moves one deadline on, which answers every stall there
    /// is.
    fn quiescent(&self, tiers: &[Meters], waiters: Waiters) -> bool {
        let mut st = self.state.lock().unwrap();
        let quiet = tiers.iter().enumerate().all(|(tier, m)| {
            let held: Vec<_> = (st.stalled.iter())
                .filter(|s| s.tier == tier && !st.lets_go(s))
                .collect();
            let unanswered = held.iter().filter(|s| !s.answered).count() as u64;
            let answered = m.timeouts.get() - m.late.get();
            held.len() == WORKERS
                || (m.inflight.get(), answered) == (unanswered, held.len() as u64 - unanswered)
        });
        let due = waiters.waiting > tiers.len() || tiers.iter().any(|m| m.inflight.get() > 0);
        if quiet && due {
            st.stalled.iter_mut().for_each(|s| s.answered = true);
        }
        quiet && due
    }

    /// Counts ops afresh, from the `leads` the call before the pass issues
    /// for it ([`ScriptState::leads`]), and arms the script once the call
    /// of the pass begins ([`Script::arm`]).
    fn open(&self, leads: &[(usize, String, usize)]) {
        let mut st = self.state.lock().unwrap();
        st.seen.clear();
        st.log.clear();
        st.leads = leads.to_vec();
    }

    /// Arms the script for the call of the pass it counts.
    fn arm(&self) {
        let mut st = self.state.lock().unwrap();
        st.armed = true;
        st.hold = Hold::Held;
    }

    /// Disarms it and returns the ops it saw and the faults that fired.
    fn disarm(&self) -> (Vec<Op>, Vec<(Op, Fault)>) {
        let mut st = self.state.lock().unwrap();
        st.armed = false;
        st.leads.clear();
        (std::mem::take(&mut st.log), st.fired.clone())
    }

    /// Lets every stalled call go, as landed or as failed, except those
    /// that may outlive a call, and waits until each has finished on the
    /// tier: a released op settles before the test's next call.
    fn release(&self) {
        self.let_go(|st| st.released = true);
    }

    /// Lets every stalled call go, and waits until each has finished.
    fn release_all(&self) {
        self.let_go(|st| {
            st.released = true;
            st.hold = Hold::Released;
        });
    }

    /// After a call of the test: held stalls go at once if it failed, and
    /// each after the next write of its key if it succeeded.
    fn after_call<T>(&self, result: &io::Result<T>) {
        match result {
            Err(_) => self.release_all(),
            Ok(_) => self.let_go(|st| st.hold = st.hold.max(Hold::AfterWrite)),
        }
    }

    fn let_go(&self, change: impl FnOnce(&mut ScriptState)) {
        let mut st = self.state.lock().unwrap();
        change(&mut st);
        self.release.notify_all();
        while (st.stalled.iter()).any(|s| st.lets_go(s)) {
            st = self.release.wait_timeout(st, HANG).unwrap().0;
        }
    }

    /// A write of `key` on `tier` landed: a held stall of the key there
    /// that waits for it lands now, before the writer returns.
    fn written(&self, tier: usize, key: &str) {
        let mut st = self.state.lock().unwrap();
        let on_key = |st: &ScriptState| {
            (st.stalled.iter()).any(|s| s.outlives && (s.tier, &s.key[..]) == (tier, key))
        };
        if st.hold != Hold::AfterWrite || !on_key(&st) {
            return;
        }
        st.written.insert((tier, key.to_string()));
        self.release.notify_all();
        while on_key(&st) {
            st = self.release.wait_timeout(st, HANG).unwrap().0;
        }
    }

    /// The fault the script gives this call, if any, and whether a stall
    /// of it may outlive a call, counting and logging it while armed.
    fn fault(&self, tier: usize, kind: Kind, key: &str) -> Option<(Fault, bool)> {
        let mut st = self.state.lock().unwrap();
        if !st.armed && !st.takes_lead(tier, kind, key) {
            return None;
        }
        let seen = st.seen.entry((tier, kind, key.to_string())).or_default();
        let nth = *seen;
        *seen += 1;
        let op = Op {
            tier,
            kind,
            key: key.to_string(),
            nth,
        };
        st.log.push(op.clone());
        let fault = st.faults.iter().find(|(o, _)| *o == op).map(|&(_, f)| f)?;
        let outlives = op.outlives();
        if fault.stalls() {
            st.stalled.push(Stall {
                tier,
                key: op.key.clone(),
                outlives,
                answered: false,
            });
        }
        st.fired.push((op, fault));
        Some((fault, outlives))
    }

    /// Runs one backend call `op` as the script says: as it is, failed,
    /// panicking, or stalled until [`Script::release`] and then run or
    /// failed.
    fn call<T>(
        &self,
        tier: usize,
        kind: Kind,
        key: &str,
        op: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let Some((fault, outlives)) = self.fault(tier, kind, key) else {
            return op();
        };
        let failed = || Err(io::Error::other(format!("scripted {fault:?} on {key}")));
        match fault {
            Fault::Error => failed(),
            Fault::Panic => panic!("scripted panic on {key}"),
            Fault::StallLanded | Fault::StallFailed => {
                let mine = |s: &Stall| (s.tier, &s.key[..], s.outlives) == (tier, key, outlives);
                let st = self.state.lock().unwrap();
                let wait = self.release.wait_timeout_while(st, HANG, |st| {
                    !st.stalled.iter().any(|s| mine(s) && st.lets_go(s))
                });
                drop(wait.unwrap());
                let result = match fault {
                    Fault::StallLanded => op(),
                    _ => failed(),
                };
                let mut st = self.state.lock().unwrap();
                if let Some(at) = st.stalled.iter().position(mine) {
                    st.stalled.remove(at);
                }
                self.release.notify_all();
                result
            }
        }
    }
}

/// Lets every stalled op go when dropped.
struct Release<'a>(&'a Script);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.release_all();
    }
}

/// A memory tier whose every call runs as the script says.
struct Scripted {
    tier: usize,
    inner: MemBackend,
    script: Arc<Script>,
}

impl Backend for Scripted {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        let write = || self.inner.write(key, data);
        let written = self.script.call(self.tier, Kind::Write, key, write);
        if written.is_ok() {
            self.script.written(self.tier, key);
        }
        written
    }
    fn write_frame(&self, key: &str, frame: &mut HostBuffer) -> io::Result<()> {
        let write = || self.inner.write_frame(key, frame);
        let written = self.script.call(self.tier, Kind::Write, key, write);
        if written.is_ok() {
            self.script.written(self.tier, key);
        }
        written
    }
    fn read(&self, key: &str) -> io::Result<Vec<u8>> {
        self.script
            .call(self.tier, Kind::Read, key, || self.inner.read(key))
    }
    fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
        let read = || self.inner.read_into(key, dst);
        self.script.call(self.tier, Kind::Read, key, read)
    }
    fn delete(&self, key: &str) -> io::Result<()> {
        self.script
            .call(self.tier, Kind::Delete, key, || self.inner.delete(key))
    }
    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

fn states() -> Vec<SubgroupState> {
    (0..M)
        .map(|s| SubgroupState::new((0..LEN).map(|i| ((s * LEN + i) as f32).sin()).collect()))
        .collect()
}

fn grads(pass: usize) -> Vec<Vec<u16>> {
    (0..M)
        .map(|s| {
            (0..LEN)
                .map(|i| F16::from_f32(((s * LEN + i + pass) as f32 * 0.1).cos() * 0.1).to_bits())
                .collect()
        })
        .collect()
}

/// Plain in-memory Adam after `passes` passes.
fn reference(passes: usize) -> Vec<Vec<f32>> {
    let mut states = states();
    for pass in 0..passes {
        for (st, g) in states.iter_mut().zip(grads(pass)) {
            st.apply_update_fp16(&AdamConfig::default(), &g, 1.0);
        }
    }
    states.into_iter().map(|st| st.params).collect()
}

/// A tier's ops the script cannot see, off the engines' sink: those not
/// answered yet, and those the deadline answered and that finished since.
struct Meters {
    inflight: Gauge,
    timeouts: Counter,
    late: Counter,
}

/// Moves a stalling schedule's clock one deadline on whenever the script
/// says only time can move the schedule ([`Script::quiescent`]), until
/// dropped.
struct Keeper {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Keeper {
    fn start(clock: Arc<ManualClock>, script: Arc<Script>, trace: &TraceSink) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let tiers: Vec<Meters> = (0..RATIO.len())
            .map(|tier| Meters {
                inflight: trace.gauge(&format!("aio.mem{tier}.inflight")),
                timeouts: trace.counter(&format!("aio.mem{tier}.timeouts")),
                late: trace.counter(&format!("aio.mem{tier}.late_completions")),
            })
            .collect();
        let halt = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !halt.load(Ordering::SeqCst) {
                if !clock.advance_if(DEADLINE, |w| script.quiescent(&tiers, w)) {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        });
        Keeper {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Keeper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The engine of a schedule over two scripted tiers, and, if it `stalls`,
/// the keeper of its tiers' clock.
fn engine(
    cfg: &EngineConfig,
    script: &Arc<Script>,
    stalls: bool,
) -> (MlpFuncEngine, Vec<Arc<Scripted>>, Option<Keeper>) {
    let (clock, trace) = (Arc::new(ManualClock::new()), TraceSink::with_capacity(0));
    let aio = AioConfig {
        workers: WORKERS,
        retry: RetryPolicy::none(),
        deadline: stalls.then_some(DEADLINE),
        clock: clock.clone(),
        trace: trace.clone(),
        ..AioConfig::deterministic()
    };
    let keeper = stalls.then(|| Keeper::start(clock, Arc::clone(script), &trace));
    let tiers: Vec<Arc<Scripted>> = (0..RATIO.len())
        .map(|tier| {
            let inner = MemBackend::new(format!("mem{tier}"));
            let script = Arc::clone(script);
            Arc::new(Scripted {
                tier,
                inner,
                script,
            })
        })
        .collect();
    let shared: Vec<SharedTier> = (tiers.iter().zip(RATIO))
        .map(|(t, w)| SharedTier::new(Arc::clone(t) as Arc<dyn Backend>, w).with_aio(aio.clone()))
        .collect();
    let cfg = cfg
        .clone()
        .with_host_frames(3)
        .with_tier_ratio(RATIO.to_vec());
    let engine = MlpFuncEngine::new(cfg, AdamConfig::default(), &shared, 0, states()).unwrap();
    (engine, tiers, keeper)
}

/// One call of the pass: the gradient flush (a no-op with "Skip
/// Gradients") and the update.
fn attempt(engine: &mut MlpFuncEngine) -> io::Result<()> {
    engine.flush_gradients()?;
    engine.update().map(drop)
}

/// Whether `result` timed out.
fn timed_out<T>(result: &io::Result<T>) -> bool {
    result
        .as_ref()
        .is_err_and(|e| e.kind() == io::ErrorKind::TimedOut)
}

/// A pass the script does not fault. It may time out only behind a stall
/// the script held when it began, and is then re-driven once, every stall
/// let go; a timeout with none held fails the schedule, and any other
/// outcome is the pass's own. The script hears how each call went.
fn drive(engine: &mut MlpFuncEngine, script: &Script) -> io::Result<()> {
    let held = script.holds();
    let mut result = attempt(engine);
    script.after_call(&result);
    if timed_out(&result) {
        if !held {
            let e = result.err().map_or_else(String::new, |e| e.to_string());
            let unfaulted = format!("a pass the script does not fault timed out: {e}");
            return Err(io::Error::other(unfaulted));
        }
        result = attempt(engine);
        script.after_call(&result);
    }
    result
}

/// [`MlpFuncEngine::master_params`]: re-read once, every stall let go, if
/// it timed out behind one the script held, as [`drive`] re-drives a pass.
fn master_params(engine: &MlpFuncEngine, script: &Script) -> io::Result<Vec<Vec<f32>>> {
    let held = script.holds();
    let result = engine.master_params();
    if held && timed_out(&result) {
        script.release_all();
        return engine.master_params();
    }
    result
}

/// The pass a preset's schedules fault, and what its clean run shows.
struct Target {
    cfg: EngineConfig,
    what: String,
    pass: usize,
    /// The reads the call before the pass issues for it
    /// ([`Script::open`]).
    leads: Vec<(usize, String, usize)>,
    /// The pass's ops, in the order a clean run saw them.
    ops: Vec<Op>,
    /// State writes whose lost payload strands their subgroup: its first
    /// eviction of the pass, when it was host-side as the pass began.
    strands: HashSet<Op>,
}

/// Whether `op` reads the key of `lead` on its tier.
fn reads_lead(op: &Op, (tier, key, _): &(usize, String, usize)) -> bool {
    (op.tier, op.kind, &op.key) == (*tier, Kind::Read, key)
}

/// The reads a call's update issued for the next pass, as
/// [`ScriptState::leads`]: each is the last read of its key on its tier
/// among the call's `ops`.
fn leads(engine: &MlpFuncEngine, ops: &[Op]) -> Vec<(usize, String, usize)> {
    let issued = engine.prefetched_reads().into_iter();
    issued
        .map(|(s, tier, _)| {
            let lead = (tier, format!("w0/sub{s}"), 0);
            let before = ops.iter().filter(|op| reads_lead(op, &lead)).count() - 1;
            (lead.0, lead.1, before)
        })
        .collect()
}

/// Runs `cfg` clean and returns its born pass and the first steady-state
/// pass that retires a copy a re-placing eviction superseded.
fn targets(cfg: &EngineConfig, preset: &str) -> Vec<Target> {
    let script = Script::new(&[]);
    let (mut engine, ..) = engine(cfg, &script, false);
    let (mut found, mut led) = (Vec::new(), Vec::new());
    for pass in 0..8 {
        engine.accumulate_gradients(&grads(pass));
        script.open(&[]);
        script.arm();
        attempt(&mut engine).unwrap();
        // The reads issued for the next pass are ops of this call too.
        while engine
            .prefetched_reads()
            .iter()
            .any(|&(.., landed)| !landed)
        {
            std::thread::yield_now();
        }
        let (call, _) = script.disarm();
        // This pass's ops: the reads the call before issued for it, each
        // the pass's first read of its key, then its call's, less the
        // reads that issued for the next pass.
        let next = leads(&engine, &call);
        let leads_in = std::mem::replace(&mut led, next);
        let next = &led;
        let mut ops: Vec<Op> = (leads_in.iter())
            .map(|(tier, key, _)| Op {
                tier: *tier,
                kind: Kind::Read,
                key: key.clone(),
                nth: 0,
            })
            .collect();
        for op in call {
            if next.iter().any(|l| reads_lead(&op, l) && op.nth == l.2) {
                continue;
            }
            let nth = op.nth + usize::from(leads_in.iter().any(|l| reads_lead(&op, l)));
            ops.push(Op { nth, ..op });
        }
        // An ascending scan with no cache evicts each subgroup at the
        // same point of every pass, so the split never re-places one:
        // its first steady pass stands in.
        let replaces = ops.iter().any(|op| op.kind == Kind::Delete) || !cfg.cache_retention;
        if pass > 0 && !replaces {
            continue;
        }
        let plan = engine.pass_plan();
        let host_side: HashSet<String> = plan
            .loads()
            .filter(|(_, load)| matches!(load, Load::Hit | Load::Fetch { after: Some(_), .. }))
            .map(|(s, _)| format!("w0/sub{s}"))
            .collect();
        let mut written = HashSet::new();
        let strands = (ops.iter().filter(|op| op.state_write()))
            .filter(|op| written.insert(op.key.clone()) && host_side.contains(&op.key))
            .cloned()
            .collect();
        let what = if pass == 0 { "born" } else { "steady" };
        found.push(Target {
            cfg: cfg.clone(),
            what: format!("{preset}, {what} pass {pass}"),
            pass,
            leads: leads_in,
            ops,
            strands,
        });
        if pass > 0 {
            return found;
        }
    }
    panic!("{preset}: no pass in eight re-places an eviction");
}

/// What a schedule made the engine do besides failing and re-driving.
#[derive(Default)]
struct Seen {
    carried: bool,
    stranded: bool,
}

/// Runs one schedule on its own thread and checks it (see the module
/// docs); a schedule that does not finish within [`HANG`] fails. Stalls
/// listed in `order` are let go in that order.
fn explore(target: &Arc<Target>, faults: Vec<(Op, Fault)>, order: &[&Op]) -> Result<Seen, String> {
    let script = Script::new(&faults);
    script.state.lock().unwrap().order =
        (order.iter()).map(|op| (op.tier, op.key.clone())).collect();
    let (done, result) = mpsc::channel();
    let (t, s) = (Arc::clone(target), Arc::clone(&script));
    std::thread::spawn(move || {
        let _ = done.send(schedule(&t, &s));
    });
    let outcome = match result.recv_timeout(HANG) {
        Ok(outcome) => outcome,
        Err(mpsc::RecvTimeoutError::Timeout) => Err(format!("no answer within {HANG:?}")),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err("the schedule panicked".into()),
    };
    script.release_all();
    outcome.map_err(|e| format!("{}, faults {faults:?}: {e}", target.what))
}

fn schedule(target: &Target, script: &Arc<Script>) -> Result<Seen, String> {
    let stalls = script
        .state
        .lock()
        .unwrap()
        .faults
        .iter()
        .any(|(_, f)| f.stalls());
    let (mut engine, tiers, _keeper) = engine(&target.cfg, script, stalls);
    // Declared after the engine, so it drops first: whichever way the
    // schedule ends, a stalled op is let go before the engine's drop
    // joins the worker that runs it.
    let _release = Release(script);
    if target.pass == 0 {
        script.open(&[]);
    }
    for pass in 0..target.pass {
        engine.accumulate_gradients(&grads(pass));
        // The call before the faulted pass issues the pass's first reads.
        if pass + 1 == target.pass {
            script.open(&target.leads);
        }
        drive(&mut engine, script).map_err(|e| format!("clean pass {pass}: {e}"))?;
    }
    engine.accumulate_gradients(&grads(target.pass));
    script.arm();
    let mut result = attempt(&mut engine);
    let (_, fired) = script.disarm();
    if result.is_ok() && fired.iter().any(|(op, _)| op.kind != Kind::Delete) {
        return Err(format!("the faulted pass returned Ok after {fired:?}"));
    }
    // A stall that may outlive a call survives a failed faulted call.
    if result.is_ok() {
        script.after_call(&result);
    }
    // A stalled state write is carried: each call fails while it runs.
    let mut seen = Seen::default();
    if fired.iter().any(|(op, f)| f.stalls() && op.state_write()) {
        seen.carried = true;
        let still = engine.update().map(drop);
        script.after_call(&still);
        match &still {
            Err(e)
                if e.kind() == io::ErrorKind::TimedOut
                    && e.to_string().contains("still running") => {}
            _ => return Err(format!("a carried flush still running gave {still:?}")),
        }
    }
    script.release();
    seen.stranded = (fired.iter()).any(|(op, f)| *f == Fault::Panic && target.strands.contains(op));
    if seen.stranded {
        for _ in 0..2 {
            match drive(&mut engine, script) {
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {}
                other => return Err(format!("a stranded subgroup's pass gave {other:?}")),
            }
        }
        return check_pool(&engine).map(|()| seen);
    }
    let mut tries = 0;
    while let Err(e) = result {
        tries += 1;
        if tries > 3 {
            return Err(format!("still failing after {tries} re-drives: {e}"));
        }
        result = attempt(&mut engine);
        script.after_call(&result);
    }
    for pass in target.pass + 1..target.pass + 3 {
        engine.accumulate_gradients(&grads(pass));
        drive(&mut engine, script).map_err(|e| format!("pass {pass}: {e}"))?;
    }
    let got = master_params(&engine, script).map_err(|e| e.to_string())?;
    if got != reference(target.pass + 3) {
        return Err("the master parameters diverged from in-memory Adam".into());
    }
    check_pool(&engine)?;
    // One durable copy per subgroup a pass has evicted — each one placed
    // on a tier, or resting over it — and one more at most for each delete
    // that did not land.
    let leaks = (fired.iter())
        .filter(|(op, f)| op.kind == Kind::Delete && *f != Fault::StallLanded)
        .count();
    let dist = engine.tier_distribution();
    let placed = (dist.tier_bytes.iter().sum::<u64>() / (12 * LEN as u64)) as usize;
    let on = |t: &Scripted, key: &str| {
        (0..M)
            .filter(|s| t.contains(&format!("w0/{key}{s}")))
            .count()
    };
    let copies: usize = tiers.iter().map(|t| on(t, "sub")).sum();
    let subgroups = (0..M)
        .filter(|s| tiers.iter().any(|t| t.contains(&format!("w0/sub{s}"))))
        .count();
    let objects: usize = tiers.iter().map(|t| t.inner.object_count()).sum();
    let others = objects - copies - tiers.iter().map(|t| on(t, "grad")).sum::<usize>();
    if subgroups < placed || copies > subgroups + leaks || others > 0 {
        return Err(format!(
            "{copies} state copies of {subgroups} subgroups ({placed} on tiers), {others} \
             other objects, {leaks} failed deletes"
        ));
    }
    Ok(seen)
}

/// Every pooled buffer is back, resting or read for the next pass, once
/// the ops a released stall let go have finished on their workers.
fn check_pool(engine: &MlpFuncEngine) -> Result<(), String> {
    let started = Instant::now();
    loop {
        let (out, resting) = (engine.state_pool_outstanding(), engine.resident_count());
        let lead = engine.prefetched_reads().len();
        if out == resting + lead {
            return Ok(());
        }
        if started.elapsed() > Duration::from_secs(2) {
            return Err(format!(
                "{out} pooled buffers out for {resting} resting frames and {lead} reads for the \
                 next pass"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs every schedule of `preset` and returns how many ran.
fn explore_preset(cfg: EngineConfig, preset: &str) -> usize {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.to_string().contains("scripted panic") {
                default(info);
            }
        }));
    });
    let started = Instant::now();
    let (mut ran, mut carried, mut stranded) = (0, 0, 0);
    for target in targets(&cfg, preset).into_iter().map(Arc::new) {
        let ops = &target.ops;
        let mut schedules: Vec<Vec<(Op, Fault)>> = Vec::new();
        for op in ops {
            schedules.extend(Fault::ALL.map(|f| vec![(op.clone(), f)]));
        }
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[i + 1..] {
                for fa in Fault::ALL {
                    for fb in Fault::ALL {
                        schedules.push(vec![(a.clone(), fa), (b.clone(), fb)]);
                    }
                }
            }
        }
        let stalled = (schedules.iter())
            .filter(|faults| faults.iter().any(|(_, f)| f.stalls()))
            .count();
        println!(
            "{}: {} ops, {} schedules, {stalled} of them stalled",
            target.what,
            ops.len(),
            schedules.len()
        );
        for faults in schedules {
            ran += 1;
            let seen =
                explore(&target, faults, &[]).unwrap_or_else(|e| panic!("schedule {ran}: {e}"));
            carried += usize::from(seen.carried);
            stranded += usize::from(seen.stranded);
        }
    }
    println!(
        "{preset}: {ran} schedules in {:?} ({carried} carried a flush, {stranded} stranded a \
         subgroup)",
        started.elapsed()
    );
    ran
}

#[test]
fn mlp_offload_survives_every_bounded_fault_schedule() {
    assert!(explore_preset(EngineConfig::mlp_offload(), "mlp_offload") > 0);
}

#[test]
fn deepspeed_zero3_survives_every_bounded_fault_schedule() {
    assert!(explore_preset(EngineConfig::deepspeed_zero3(), "deepspeed_zero3") > 0);
}

/// Runs one schedule on `preset`'s steady pass, letting its stalls go in
/// `order`.
fn pinned(cfg: EngineConfig, preset: &str, faults: &[(Op, Fault)], order: &[&Op]) {
    let steady = targets(&cfg, preset).into_iter().find(|t| t.pass > 0);
    let target = Arc::new(steady.expect("a steady pass"));
    for (op, _) in faults {
        assert!(
            target.ops.contains(op),
            "{preset}: the pass no longer runs {op:?}"
        );
    }
    explore(&target, faults.to_vec(), order).unwrap_or_else(|e| panic!("{e}"));
}

/// A retire-delete the deadline answered once landed after the next
/// pass's write of its key on its tier, deleting the newer copy ("pass 3:
/// no object w0/sub3").
#[test]
fn a_late_retire_delete_never_lands_after_a_newer_write() {
    let op = Op {
        tier: 1,
        kind: Kind::Delete,
        key: "w0/sub3".into(),
        nth: 0,
    };
    let faults = [(op, Fault::StallLanded)];
    pinned(EngineConfig::mlp_offload(), "mlp_offload", &faults, &[]);
}

/// Schedule 438 of the steady `mlp_offload` pass once failed under host
/// load ("a carried flush still running gave Ok(())"): a stalled fetch
/// released as failed, and a stalled eviction released as landed. On the
/// manual clock it runs the same way each time, under either order of its
/// two releases.
#[test]
fn a_failed_fetch_and_a_landed_eviction_settle_in_either_order() {
    let read = Op {
        tier: 0,
        kind: Kind::Read,
        key: "w0/sub2".into(),
        nth: 0,
    };
    let write = Op {
        tier: 1,
        kind: Kind::Write,
        key: "w0/sub6".into(),
        nth: 0,
    };
    let faults = [
        (read.clone(), Fault::StallFailed),
        (write.clone(), Fault::StallLanded),
    ];
    for order in [[&read, &write], [&write, &read]] {
        pinned(EngineConfig::mlp_offload(), "mlp_offload", &faults, &order);
    }
}

/// A gradient write the deadline answered once landed after the next
/// iteration's write of its key, and that iteration applied the old
/// gradients.
#[test]
fn a_late_gradient_write_never_lands_after_a_newer_write() {
    let op = Op {
        tier: 0,
        kind: Kind::Write,
        key: "w0/grad0".into(),
        nth: 0,
    };
    let faults = [(op, Fault::StallLanded)];
    pinned(
        EngineConfig::deepspeed_zero3(),
        "deepspeed_zero3",
        &faults,
        &[],
    );
}

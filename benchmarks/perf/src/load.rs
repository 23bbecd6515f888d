//! The closed-loop client: one thread issues an operation, waits for the
//! reply, issues the next. A phase is cut into blocks sized to last about
//! `BLOCK_TARGET` each (from a short warm-up, then from the previous
//! block's pace), and blocks repeat until the phase's time is up.

use std::time::{Duration, Instant};

use crate::host;
use crate::stats::Block;
use crate::trace::Tracer;

/// Wall time one block should take.
const BLOCK_TARGET: Duration = Duration::from_millis(100);
/// Operations of the warm-up that sizes the blocks (not measured).
const WARMUP_OPS: usize = 48;
/// One request in this many is replayed layer by layer in a traced block.
pub const REPLAY_EVERY: u64 = 50;

/// When a phase ends.
#[derive(Clone, Copy)]
pub struct Budget {
    /// Stop starting new blocks after this instant...
    pub deadline: Instant,
    /// ...but run at least this many.
    pub min_blocks: usize,
    /// Never run more than this many.
    pub max_blocks: usize,
}

impl Budget {
    /// A phase of `seconds` from now with at least `min_blocks` blocks.
    pub fn seconds(seconds: f64, min_blocks: usize) -> Budget {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)),
            min_blocks,
            max_blocks: usize::MAX,
        }
    }
}

/// Called after a sampled operation of a traced block with the
/// operation's input, its latency in nanoseconds, the tracer and the
/// request id.
pub type Replay<'a, T> = &'a mut dyn FnMut(&T, u64, &mut Tracer, u64);

/// What one client thread measured over one phase.
#[derive(Default)]
pub struct Load {
    /// Per-block summaries, in order.
    pub blocks: Vec<Block>,
    /// Every measured latency of untraced blocks (full-run p99 and max).
    pub all_ns: Vec<u64>,
    /// Operations issued, warm-up included.
    pub attempted: u64,
    /// Operations that failed, were refused or came back degraded.
    pub failed: u64,
    /// Measured operations (warm-up excluded).
    pub measured: u64,
    /// On-CPU time of the client thread over the measured blocks.
    pub oncpu_ns: u64,
    /// Run-queue wait of the client thread over the measured blocks.
    pub runq_ns: u64,
    /// Minor page faults of the client thread over the measured blocks.
    pub minor_faults: u64,
}

/// Runs one client thread's closed loop.
///
/// `fill(block, n)` produces the block's `n` inputs outside the timed
/// region. `op` performs one operation and says whether it succeeded.
/// `replay`, when given, is called after a sampled operation of a traced
/// block with that operation's input and latency; it runs outside the
/// operation's own timing.
///
/// When `tracer.on` is set the loop alternates: even blocks run with the
/// tracer off, odd blocks with it on, so one run yields both sides of the
/// tracing-overhead comparison under the same conditions.
pub fn run<T: Clone>(
    budget: Budget,
    tracer: &mut Tracer,
    span_name: &'static str,
    mut fill: impl FnMut(u64, usize) -> Vec<T>,
    mut op: impl FnMut(T) -> bool,
    mut replay: Option<Replay<'_, T>>,
) -> Load {
    let traced_run = tracer.on;
    tracer.on = false;
    let mut load = Load::default();

    // warm-up: fills caches and lazy state, and sizes the blocks
    let warm = fill(u64::MAX, WARMUP_OPS);
    let t0 = Instant::now();
    for item in warm {
        load.attempted += 1;
        if !op(item) {
            load.failed += 1;
        }
    }
    // operations per block, re-derived after every block from that block's
    // own pace: a warm-up the cache happened to answer must not size the
    // whole phase
    let ops_for =
        |per_op: f64| ((BLOCK_TARGET.as_secs_f64() / per_op.max(1e-9)) as usize).clamp(64, 8192);
    let mut block_ops = ops_for(t0.elapsed().as_secs_f64() / WARMUP_OPS as f64);

    let (cpu0, runq0) = host::schedstat();
    let faults0 = host::minor_faults();
    let mut request = 0u64;
    let mut latencies = Vec::with_capacity(block_ops);
    while load.blocks.len() < budget.max_blocks
        && (load.blocks.len() < budget.min_blocks || Instant::now() < budget.deadline)
    {
        let block = load.blocks.len() as u64;
        let items = fill(block, block_ops);
        tracer.on = traced_run && block % 2 == 1;
        latencies.clear();
        let block_start = Instant::now();
        for item in items {
            request += 1;
            let sampled = tracer.on && request.is_multiple_of(REPLAY_EVERY) && replay.is_some();
            let copy = sampled.then(|| item.clone());
            let t = Instant::now();
            let id = tracer.begin(span_name, request);
            let ok = op(item);
            tracer.end(id);
            let ns = t.elapsed().as_nanos() as u64;
            latencies.push(ns);
            load.attempted += 1;
            if !ok {
                load.failed += 1;
            }
            if let (Some(copy), Some(replay)) = (copy, replay.as_mut()) {
                replay(&copy, ns, tracer, request);
            }
        }
        let wall = block_start.elapsed().as_nanos() as u64;
        if !tracer.on {
            load.all_ns.extend_from_slice(&latencies);
        }
        load.measured += latencies.len() as u64;
        block_ops = ops_for(wall as f64 / 1e9 / latencies.len() as f64);
        load.blocks.push(Block::of(&mut latencies, wall, tracer.on));
    }
    let (cpu1, runq1) = host::schedstat();
    load.oncpu_ns = cpu1.saturating_sub(cpu0);
    load.runq_ns = runq1.saturating_sub(runq0);
    load.minor_faults = host::minor_faults().saturating_sub(faults0);
    tracer.on = traced_run;
    load
}

/// The blocks of `load` measured with the tracer off — the only ones an
/// end-to-end figure may come from.
pub fn untraced(load: &Load) -> Vec<Block> {
    load.blocks.iter().copied().filter(|b| !b.traced).collect()
}

/// The blocks of `load` measured with the tracer on.
pub fn traced(load: &Load) -> Vec<Block> {
    load.blocks.iter().copied().filter(|b| b.traced).collect()
}

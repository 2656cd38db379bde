//! Pieces the workloads share: run arguments, repeated set-up, input pools
//! with their expected outputs, and the two request drivers.

use crate::span::Recorder;
use crate::stats::median;
use fpsa::nn::{ComputationalGraph, GraphParameters, QuantizationPlan, Reference};
use fpsa::serve::{ServeEngine, Ticket};
use fpsa::sim::Executor;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Set-up runs this many times per process; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Requests a closed-loop client keeps outstanding.
pub const IN_FLIGHT: usize = 64;

/// Seconds of requests in one latency window (see `RoundStats`).
pub const LATENCY_WINDOW_S: f64 = 0.1;

/// Float outputs must match the golden reference this closely.
pub const FLOAT_TOLERANCE: f32 = 1e-4;

/// Whether `got` is the reference's `want` within [`FLOAT_TOLERANCE`].
pub fn close_to(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= FLOAT_TOLERANCE)
}

/// Per-sample time in µs of `run_batch_into` over `inputs` as one batch,
/// repeated for `duration`: the kernel share of a served request.
pub fn kernel_us_per_sample(exec: &Executor, inputs: &[Vec<f32>], duration: Duration) -> f64 {
    let mut arena = exec.arena();
    let mut outputs = Vec::new();
    let started = Instant::now();
    let (mut busy, mut samples) = (Duration::ZERO, 0usize);
    while samples == 0 || started.elapsed() < duration {
        let start = Instant::now();
        exec.run_batch_into(inputs, &mut arena, &mut outputs)
            .expect("batched run of generated inputs");
        busy += start.elapsed();
        samples += inputs.len();
    }
    busy.as_secs_f64() * 1e6 / samples as f64
}

pub struct Args {
    pub seed: u64,
    /// Measured time of the run, seconds.
    pub seconds: f64,
    pub traced: bool,
    /// Flip one expected output, so the correctness gate must trip.
    pub corrupt: bool,
}

impl Args {
    /// `share` of the run's measured time.
    pub fn slice(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Build the workload's set-up [`SETUP_REPEATS`] times (each from scratch,
/// the previous one dropped first) and return the last with the median
/// build time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPEATS >= 1"), median(&times))
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Generated inputs with the outputs a direct `Executor::run` gives them.
/// Everything a workload serves or batches is compared bit for bit with
/// `expected`; `expected` itself is checked against the golden reference.
pub struct Pool {
    pub inputs: Vec<Vec<f32>>,
    pub expected: Vec<Vec<f32>>,
}

impl Pool {
    pub fn build(exec: &Executor, inputs: Vec<Vec<f32>>) -> Pool {
        let expected = inputs
            .iter()
            .map(|x| exec.run(x).expect("direct execution of a generated input"))
            .collect();
        Pool { inputs, expected }
    }

    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    pub fn corrupt(&mut self) {
        self.expected[0][0] += 1.0;
    }

    /// Check the first `n` direct Float outputs against
    /// `Reference::logits`; returns `(attempted, failed)`.
    pub fn verify_float(
        &self,
        graph: &ComputationalGraph,
        params: &GraphParameters,
        n: usize,
    ) -> (u64, u64) {
        let reference = Reference::new(graph, params).expect("zoo graphs have a reference");
        let mut failed = 0;
        let n = n.min(self.len());
        for (x, got) in self.inputs.iter().zip(&self.expected).take(n) {
            let want = reference.logits(x).expect("reference forward pass");
            failed += u64::from(!close_to(got, &want));
        }
        (n as u64, failed)
    }

    /// Check the first `n` direct Integer runs bit for bit against
    /// `Reference::quantized_logits`; returns `(attempted, failed)`.
    pub fn verify_integer(
        &self,
        exec: &Executor,
        graph: &ComputationalGraph,
        params: &GraphParameters,
        plan: &QuantizationPlan,
        n: usize,
    ) -> (u64, u64) {
        let reference = Reference::new(graph, params).expect("zoo graphs have a reference");
        let mut failed = 0;
        let n = n.min(self.len());
        for x in self.inputs.iter().take(n) {
            let want = reference
                .quantized_logits(plan, x)
                .expect("quantized reference forward pass");
            let got = exec.run_codes(x).expect("direct integer execution");
            failed += u64::from(want != got);
        }
        (n as u64, failed)
    }
}

/// What a request driver measured.
#[derive(Default)]
pub struct Served {
    /// Tickets redeemed.
    pub attempted: u64,
    /// Requests that resolved to an output.
    pub completed: u64,
    /// Errors, refusals and sheds, plus completed requests whose output
    /// differs from `expected`.
    pub failed: u64,
    pub wall_s: f64,
    /// Worker-stamped submit-to-completion latency per request, µs.
    pub engine_latency_us: Vec<f64>,
    /// How late each request was submitted after it was due, µs (open
    /// loop only).
    pub lag_us: Vec<f64>,
}

impl Served {
    pub fn rps(&self) -> f64 {
        self.completed as f64 / self.wall_s.max(1e-9)
    }

    /// Requests completed in [`LATENCY_WINDOW_S`] at the achieved rate.
    pub fn latency_window(&self) -> usize {
        (self.rps() * LATENCY_WINDOW_S) as usize
    }

    /// Latency counted from the instant each request was due.
    pub fn due_latency_us(&self) -> Vec<f64> {
        self.engine_latency_us
            .iter()
            .zip(&self.lag_us)
            .map(|(l, g)| l + g)
            .collect()
    }

    /// Redeem one ticket; true when it resolved to an output (matching or
    /// not), which is when it has a latency sample.
    fn settle(&mut self, ticket: Ticket, expected: &[f32]) -> bool {
        self.attempted += 1;
        match ticket.wait_timed() {
            Ok((out, latency_us)) => {
                self.completed += 1;
                self.failed += u64::from(out != expected);
                self.engine_latency_us.push(latency_us as f64);
                true
            }
            Err(_) => {
                self.failed += 1;
                false
            }
        }
    }
}

/// Closed loop: one client keeps [`IN_FLIGHT`] requests outstanding for
/// `duration`, request `i` being `submit(i)` with expected output
/// `expected(i)`, then drains. `layer` names the spans.
pub fn closed_loop<'a>(
    rec: &mut Recorder,
    layer: &'static str,
    duration: Duration,
    mut submit: impl FnMut(usize) -> Ticket,
    expected: impl Fn(usize) -> &'a [f32],
) -> Served {
    let mut served = Served::default();
    // Room for more completions than any engine here reaches (1M/s), so the
    // latency record never reallocates: on the tiny-model workloads the copy
    // a reallocation makes would be the process's peak RSS, and which run
    // crosses a doubling would be its noise. Untouched room is not resident.
    served
        .engine_latency_us
        .reserve((duration.as_secs_f64() * 1e6) as usize);
    let mut window: VecDeque<(usize, Ticket)> = VecDeque::with_capacity(IN_FLIGHT);
    let start = Instant::now();
    let mut next = 0usize;
    let mut submit_traced = |rec: &mut Recorder, i: usize| {
        let open = rec.enter(layer, "submit", i as u64 + 1);
        let ticket = submit(i);
        rec.exit(open);
        ticket
    };
    while window.len() < IN_FLIGHT {
        window.push_back((next, submit_traced(rec, next)));
        next += 1;
    }
    let mut running = true;
    while let Some((i, ticket)) = window.pop_front() {
        let open = rec.enter(layer, "wait", i as u64 + 1);
        served.settle(ticket, expected(i));
        rec.exit(open);
        // The clock is read once per 32 completions: at 200k req/s a read
        // per request would be ~1% of the loop.
        if running && next.is_multiple_of(32) {
            running = start.elapsed() < duration;
        }
        if running {
            window.push_back((next, submit_traced(rec, next)));
            next += 1;
        }
    }
    served.wall_s = start.elapsed().as_secs_f64();
    served
}

/// Open loop against a [`ServeEngine`]: request `i` is due `arrivals_us[i]`
/// after the start and takes `pool` entry `i % pool.len()`. The generator
/// never waits for a reply; tickets are redeemed after the last submission
/// (their latency is stamped by the worker, so when they are redeemed does
/// not matter).
pub fn open_loop(
    rec: &mut Recorder,
    engine: &ServeEngine,
    pool: &Pool,
    arrivals_us: &[u64],
) -> Served {
    let mut served = Served::default();
    served.engine_latency_us.reserve(arrivals_us.len());
    served.lag_us.reserve(arrivals_us.len());
    let mut tickets = Vec::with_capacity(arrivals_us.len());
    let first = arrivals_us.first().copied().unwrap_or(0);
    let start = Instant::now();
    for (i, &at) in arrivals_us.iter().enumerate() {
        // The copy the engine takes ownership of is made before the request
        // is due, so it is not on the request's clock.
        let input = pool.inputs[i % pool.len()].clone();
        let due = Duration::from_micros(at - first);
        let mut now = start.elapsed();
        while now < due {
            // Sleeping would add the timer's wake-up error to every
            // request; the generator spins instead.
            std::hint::spin_loop();
            now = start.elapsed();
        }
        let lag_us = (now - due).as_secs_f64() * 1e6;
        let open = rec.enter("serve", "submit", i as u64 + 1);
        tickets.push((engine.submit(input), lag_us));
        rec.exit(open);
    }
    for (i, (ticket, lag_us)) in tickets.into_iter().enumerate() {
        let open = rec.enter("serve", "wait", i as u64 + 1);
        // A lag is kept only beside a latency, so the two stay aligned.
        if served.settle(ticket, &pool.expected[i % pool.len()]) {
            served.lag_us.push(lag_us);
        }
        rec.exit(open);
    }
    served.wall_s = start.elapsed().as_secs_f64();
    served
}

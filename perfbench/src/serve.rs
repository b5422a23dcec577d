//! The `serve-k32` workload: the real `aurora_serve` daemon on a Unix
//! socket, driven by this process over two closed-loop connections.
//!
//! * Connection 1 sends the seeded one-shot schedule (k = 8 R-MAT GCN
//!   requests, a fixed share of them repeats that the result cache
//!   answers).
//! * Connection 2 opens one Pubmed k = 32 session and streams the
//!   seeded sliding-window deltas.
//!
//! Both loops start together and each stops after its fixed op count.
//! Every reply is checked after the timed phase: one-shots against the
//! committed fingerprints (a hit must equal its miss), deltas against
//! the expected digest chain, and the session's final report against a
//! from-scratch `run` of the final graph.

use crate::check::{fingerprint, fnv, Golden, Tally};
use crate::outcome::{peak_rss_mb, Outcome};
use crate::spec::{self, SETUP_REPS};
use crate::stats;
use crate::stream::{DeltaStream, Schedule};
use crate::trace::Tracer;
use aurora_core::{
    span, AuroraSimulator, GraphSpec, HostProfile, SessionRequestBuilder, SimRequest, SimResponse,
    Stage,
};
use aurora_serve::{Client, Endpoint, ServeRequest, SessionLine};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Budget for a daemon to come up healthy or to drain and exit.
const DAEMON_BUDGET: Duration = Duration::from_secs(20);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// A daemon child process. Dropping it stops it: SIGTERM, a bounded
/// wait for the drain, then SIGKILL.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    pub access_log: Option<PathBuf>,
}

impl Daemon {
    pub fn spawn(bin: &Path, dir: &Path, tag: &str, access_log: bool) -> std::io::Result<Daemon> {
        // relative to the working directory: socket paths are short
        let socket = dir.join(format!("{tag}.sock"));
        let _ = std::fs::remove_file(&socket);
        let log = access_log.then(|| dir.join(format!("{tag}.access.ndjson")));
        let mut cmd = Command::new(bin);
        cmd.arg("--socket")
            .arg(&socket)
            .args(["--workers", &spec::SERVE_WORKERS.to_string()])
            .args(["--queue", "64", "--cache", "4096", "--timeout-ms", "120000"])
            .args(["--drain-grace-ms", "0"])
            .env("AURORA_THREADS", spec::THREADS.to_string())
            .env_remove("AURORA_HOST_PROFILE")
            .env_remove("AURORA_ALLOC_PROFILE")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(l) = &log {
            let _ = std::fs::remove_file(l);
            cmd.arg("--access-log").arg(l);
        }
        Ok(Daemon {
            child: cmd.spawn()?,
            socket,
            access_log: log,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn endpoint(&self) -> Endpoint {
        Endpoint::Unix(self.socket.clone())
    }

    /// Connects once the socket accepts and `health` reports `ok`.
    pub fn wait_healthy(&mut self) -> Result<Client, String> {
        let deadline = Instant::now() + DAEMON_BUDGET;
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if let Ok(mut c) = Client::connect(&self.endpoint()) {
                let health = c.admin("health").map_err(|e| e.to_string())?;
                if health.get("status").and_then(|s| s.as_str()) == Some("ok") {
                    return Ok(c);
                }
            }
            if Instant::now() > deadline {
                return Err("daemon did not become healthy".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn stop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            // SAFETY: `kill` takes two integers and touches no memory of
            // ours; the pid is our own child, not yet reaped (`try_wait`
            // just saw it running), so it cannot name another process.
            unsafe {
                kill(self.child.id() as i32, SIGTERM);
            }
            let deadline = Instant::now() + DAEMON_BUDGET;
            while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The generated inputs of one run, serialized before anything is timed.
struct Inputs {
    seed: u64,
    schedule: Schedule,
    oneshot_reqs: Vec<SimRequest>,
    oneshot_lines: Vec<String>,
    stream: DeltaStream,
    delta_lines: Vec<String>,
}

impl Inputs {
    fn new(seed: u64, seconds: u64) -> Inputs {
        // p90 needs 100 deltas; the one-shots must fit the universe
        let deltas = spec::ops_for(spec::DELTAS, seconds, 100)
            .min(Schedule::max_len() / spec::ONESHOTS_PER_DELTA);
        let schedule = Schedule::new(seed, deltas * spec::ONESHOTS_PER_DELTA);
        let oneshot_reqs: Vec<SimRequest> = schedule
            .ops
            .iter()
            .map(|&u| spec::oneshot_request(u))
            .collect();
        let oneshot_lines = oneshot_reqs
            .iter()
            .enumerate()
            .map(|(i, sim)| {
                serde_json::to_string(&ServeRequest {
                    id: i as u64 + 1,
                    version: aurora_core::WIRE_VERSION,
                    sim: sim.clone(),
                })
                .expect("request serializes")
            })
            .collect();
        let stream = DeltaStream::new(seed, deltas);
        let sid = stream.base.digest();
        let delta_lines = stream
            .deltas
            .iter()
            .enumerate()
            .map(|(i, d)| {
                session_line(
                    i as u64 + 2,
                    SessionRequestBuilder::resume(&sid).delta(d.clone()),
                )
            })
            .collect();
        Inputs {
            seed,
            schedule,
            oneshot_reqs,
            oneshot_lines,
            stream,
            delta_lines,
        }
    }
}

fn session_line(id: u64, session: aurora_core::SessionCommand) -> String {
    serde_json::to_string(&SessionLine {
        id,
        version: aurora_core::WIRE_VERSION,
        session,
    })
    .expect("session line serializes")
}

/// A daemon that is up, with connection 2's session open.
struct Served {
    daemon: Daemon,
    oneshot: Client,
    session: Client,
}

/// Spawn → `health` ok → session open; returns the set-up wall.
fn set_up(
    bin: &Path,
    dir: &Path,
    tag: &str,
    log: bool,
    inputs: &Inputs,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(Served, f64), String> {
    let t = Instant::now();
    tracer.enter("setup", 0);
    tracer.enter("spawn", 0);
    let mut daemon =
        Daemon::spawn(bin, dir, tag, log).map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    tracer.exit();
    let oneshot = tracer.span("health", 0, || daemon.wait_healthy())?;
    let mut session = Client::connect(&daemon.endpoint()).map_err(|e| e.to_string())?;
    let open = SessionRequestBuilder::from_request(inputs.stream.base.clone())
        .open()
        .expect("session open command");
    let line = session_line(1, open);
    let reply = tracer.span("session.open", 0, || session.roundtrip(&line));
    let dur = t.elapsed().as_secs_f64();
    tracer.exit();
    let want = inputs.stream.base.digest();
    let ok =
        matches!(&reply, Ok(r) if parse(r).map(|x| x.is_ok() && x.digest == want).unwrap_or(false));
    tally.record(ok, || format!("session open: {reply:?}"));
    Ok((
        Served {
            daemon,
            oneshot,
            session,
        },
        dur,
    ))
}

fn parse(line: &str) -> Option<SimResponse> {
    serde_json::from_str(line).ok()
}

/// The `report` value of a response line, byte for byte: the envelope
/// serializes `report` right before its last field, `error`.
fn raw_report(line: &str) -> &str {
    let start = line
        .find("\"report\":")
        .map_or(0, |i| i + "\"report\":".len());
    let end = line.rfind(",\"error\":").unwrap_or(line.len()).max(start);
    &line[start..end]
}

/// One op as the client saw it: round trip, seconds, and the raw reply.
struct Op {
    rt_s: f64,
    reply: Result<String, String>,
}

/// Both connections' replays of one timed phase.
struct Phase {
    oneshots: Vec<Op>,
    deltas: Vec<Op>,
    wall_s: f64,
    daemon_rss_mb: f64,
}

/// Sends `lines` in `rounds` equal rounds, meeting the other connection
/// at `barrier` before each round: every delta overlaps the same number
/// of one-shots, and both connections finish together.
fn closed_loop(
    client: &mut Client,
    lines: &[String],
    rounds: usize,
    barrier: &Barrier,
    name: &str,
    tracer: &mut Tracer,
) -> Vec<Op> {
    assert_eq!(
        lines.len() % rounds,
        0,
        "{name}: ops split evenly into rounds"
    );
    let mut ops = Vec::with_capacity(lines.len());
    for round in lines.chunks(lines.len() / rounds) {
        barrier.wait();
        for line in round {
            tracer.enter(name, ops.len() as u64 + 1);
            let t = Instant::now();
            let reply = client.roundtrip(line).map_err(|e| e.to_string());
            let rt_s = t.elapsed().as_secs_f64();
            tracer.exit();
            ops.push(Op { rt_s, reply });
        }
    }
    ops
}

/// Runs both connections to completion, round by round.
fn timed_phase(
    served: &mut Served,
    inputs: &Inputs,
    traced: bool,
    epoch: Instant,
    tracer: &mut Tracer,
) -> Phase {
    let rounds = inputs.delta_lines.len();
    let barrier = Barrier::new(2);
    let t0 = Instant::now();
    let (oneshots, deltas) = std::thread::scope(|s| {
        let oneshot_client = &mut served.oneshot;
        let barrier = &barrier;
        let h = s.spawn(move || {
            let mut tr = Tracer::new(traced, epoch);
            let ops = closed_loop(
                oneshot_client,
                &inputs.oneshot_lines,
                rounds,
                barrier,
                "oneshot",
                &mut tr,
            );
            (ops, tr)
        });
        let deltas = closed_loop(
            &mut served.session,
            &inputs.delta_lines,
            rounds,
            barrier,
            "delta",
            tracer,
        );
        let (oneshots, tr) = h.join().expect("one-shot connection");
        tracer.merge(tr);
        (oneshots, deltas)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    Phase {
        oneshots,
        deltas,
        wall_s,
        daemon_rss_mb: peak_rss_mb(Some(served.daemon.pid())),
    }
}

/// Checks every reply of a phase; returns the engine runs it caused
/// (one-shot misses plus deltas).
fn check_phase(phase: &Phase, inputs: &Inputs, golden: &Golden, tally: &mut Tally) -> usize {
    // the raw report bytes of each miss, which its hits must repeat
    let mut miss_bytes: std::collections::HashMap<usize, String> = Default::default();
    for (i, op) in phase.oneshots.iter().enumerate() {
        let req = &inputs.oneshot_reqs[i];
        let u = inputs.schedule.ops[i];
        let line = op.reply.as_deref().unwrap_or("");
        let resp = parse(line);
        let Some(report) = resp.as_ref().and_then(|r| r.report.as_ref()) else {
            tally.record(false, || {
                format!(
                    "one-shot {i}: {:?}",
                    line.chars().take(200).collect::<String>()
                )
            });
            continue;
        };
        let fp = fingerprint(report);
        let bytes = fnv(raw_report(line).as_bytes());
        let cached = resp.as_ref().is_some_and(|r| r.cached);
        let repeat = inputs.schedule.repeat[i];
        let ok = golden.get(&req.digest()) == Some(&fp)
            && cached == repeat
            && (!repeat || miss_bytes.get(&u) == Some(&bytes));
        tally.record(ok, || {
            let committed = golden.get(&req.digest());
            format!("one-shot {i} (universe {u}, repeat {repeat}, cached {cached}): {fp:?}, committed {committed:?}")
        });
        if !repeat {
            miss_bytes.insert(u, bytes);
        }
    }
    let mut last_report = None;
    for (i, op) in phase.deltas.iter().enumerate() {
        let resp = op.reply.as_ref().ok().and_then(|r| parse(r));
        let want = &inputs.stream.heads[i];
        let ok = matches!(&resp, Some(r) if r.is_ok() && !r.cached && &r.digest == want);
        tally.record(ok, || {
            format!(
                "delta {i}: want head {want}, got {:?}",
                resp.as_ref().map(|r| (&r.digest, &r.error))
            )
        });
        if i + 1 == phase.deltas.len() {
            last_report = resp.and_then(|r| r.report);
        }
    }
    // one more op, untimed: the session's final report must equal a
    // from-scratch run of the final graph, and the committed fingerprint
    // where the seed has one
    let fresh_req = SimRequest {
        graph: GraphSpec::Inline(inputs.stream.final_graph.clone()),
        ..inputs.stream.base.clone()
    };
    let fresh = AuroraSimulator::new(fresh_req.config)
        .run(&fresh_req)
        .map(|r| fingerprint(&r));
    let got = last_report.as_ref().map(fingerprint);
    let key = format!(
        "{}:{}",
        Golden::session_key(inputs.seed),
        inputs.stream.deltas.len()
    );
    let committed = golden.get(&key);
    let ok = match (&got, &fresh) {
        (Some(got), Ok(fresh)) => {
            let head = inputs.stream.heads.last().expect("at least one delta");
            got == fresh
                && committed.is_none_or(|c| {
                    c.report == format!("{head}/{}", got.report) && c.cycles == got.cycles
                })
        }
        _ => false,
    };
    tally.record(ok, || {
        format!("final session state {got:?}, from scratch {fresh:?}, committed {committed:?}")
    });
    let misses = inputs.schedule.ops.len() - inputs.schedule.hits();
    misses + phase.deltas.len()
}

/// The access-log fields the benchmark reads.
struct LogRecord {
    outcome: String,
    queue_wait_us: f64,
    execute_us: f64,
    latency_us: f64,
}

/// Reads the one-shot records of an access log, in service order.
fn oneshot_records(path: &Path) -> Vec<LogRecord> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| serde_json::from_str::<serde_json::Value>(l).ok())
        .filter(|v| {
            v.get("workload")
                .and_then(|w| w.as_str())
                .is_some_and(|w| !w.starts_with("session"))
        })
        .map(|v| LogRecord {
            outcome: v
                .get("outcome")
                .and_then(|o| o.as_str())
                .unwrap_or("")
                .to_string(),
            queue_wait_us: num(&v, &["queue_wait_us"]),
            execute_us: num(&v, &["execute_us"]),
            latency_us: num(&v, &["latency_us"]),
        })
        .collect()
}

fn ms(samples: impl Iterator<Item = f64>) -> Vec<f64> {
    samples.map(|s| s * 1e3).collect()
}

/// The daemon's admin `stats` body.
fn stats_of(client: &mut Client) -> Result<serde_json::Value, String> {
    let reply = client.admin("stats").map_err(|e| e.to_string())?;
    reply
        .get("stats")
        .cloned()
        .ok_or_else(|| format!("admin stats reply without a body: {reply:?}"))
}

fn num(v: &serde_json::Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

/// Fills the end-to-end metrics from an untraced phase.
fn end_to_end(out: &mut Outcome, setup: &[f64], phase: &Phase, sims: usize) {
    let req = ms(phase.oneshots.iter().map(|o| o.rt_s));
    let delta = ms(phase.deltas.iter().map(|o| o.rt_s));
    out.set(
        "setup_s",
        stats::median(setup),
        setup.len(),
        "median of daemon spawn -> health ok -> session open",
    );
    let ops = phase.oneshots.len() + phase.deltas.len();
    out.set(
        "ops_per_s",
        stats::throughput(ops, phase.wall_s),
        ops,
        "one-shots + deltas over the phase wall",
    );
    out.set(
        "sims_per_s",
        stats::throughput(sims, phase.wall_s),
        sims,
        "engine runs (one-shot misses + deltas) over the phase wall",
    );
    out.set("peak_rss_mb", phase.daemon_rss_mb, 1, "VmHWM of the daemon");
    out.set(
        "req_ms_p50",
        stats::median(&req),
        req.len(),
        "one-shot round trip",
    );
    let p99 = stats::tail(&req, 0.99).expect("schedule has >= 1,000 one-shots");
    out.set(
        "req_ms_p99",
        p99.value,
        p99.n,
        format!("one-shot round trip, {} beyond", p99.beyond),
    );
    out.set(
        "delta_ms_p50",
        stats::median(&delta),
        delta.len(),
        "session delta round trip",
    );
    let p90 = stats::tail(&delta, 0.90).expect("stream has >= 100 deltas");
    out.set(
        "delta_ms_p90",
        p90.value,
        p90.n,
        format!("session delta round trip, {} beyond", p90.beyond),
    );
}

/// Replays the delta stream in-process through `SimSession::apply` with
/// span profiling on; returns each apply's wall and host profile.
fn replay_session(
    inputs: &Inputs,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<(f64, HostProfile)> {
    let sim = AuroraSimulator::new(inputs.stream.base.config);
    let mut session = match sim.open_session(&inputs.stream.base) {
        Ok(s) => s,
        Err(e) => {
            tally.record(false, || format!("in-process session open: {e}"));
            return Vec::new();
        }
    };
    span::set_span_profiling(true);
    let mut out = Vec::with_capacity(inputs.stream.deltas.len());
    for (i, delta) in inputs.stream.deltas.iter().enumerate() {
        tracer.enter("session.apply", i as u64 + 1);
        let mark = span::mark();
        let t = Instant::now();
        let result = session.apply(delta);
        let wall = t.elapsed();
        let profile = span::collect(&mark, wall);
        for s in &profile.stages {
            tracer.attr(format!("{}.self_us", s.stage.label()), s.self_us as f64);
        }
        tracer.exit();
        let ok = matches!(&result, Ok(o) if o.digest == inputs.stream.heads[i]);
        tally.record(ok, || format!("in-process apply {i}: {result:?}"));
        out.push((wall.as_secs_f64(), profile));
    }
    span::set_span_profiling(false);
    out
}

/// Runs `serve-k32`. `bin` is the daemon binary; sockets and logs go in
/// `dir`.
pub fn run(
    bin: &Path,
    dir: &Path,
    seed: u64,
    seconds: u64,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let golden = Golden::committed();
    let inputs = Inputs::new(seed, seconds);
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let tag = |i: usize| format!("serve-{}-{i}", std::process::id());
    let mut setup = Vec::new();
    let mut served = None;
    for i in 0..SETUP_REPS {
        drop(served.take());
        let mut quiet = Tracer::new(false, epoch);
        let (s, dur) = set_up(
            bin,
            dir,
            &tag(i),
            false,
            &inputs,
            &mut out.tally,
            &mut quiet,
        )?;
        setup.push(dur);
        served = Some(s);
    }
    let mut served = served.expect("at least one set-up");
    let mut quiet = Tracer::new(false, epoch);
    let plain = timed_phase(&mut served, &inputs, false, epoch, &mut quiet);
    let sims = check_phase(&plain, &inputs, &golden, &mut out.tally);
    end_to_end(&mut out, &setup, &plain, sims);
    drop(served);
    if !traced {
        return Ok(out);
    }

    // traced phase: a fresh daemon writing its access log
    let (mut served, _) = set_up(
        bin,
        dir,
        &tag(SETUP_REPS),
        true,
        &inputs,
        &mut out.tally,
        tracer,
    )?;
    let before = tracer.span("admin.stats", 0, || stats_of(&mut served.oneshot))?;
    let traced_phase = timed_phase(&mut served, &inputs, true, epoch, tracer);
    let after = tracer.span("admin.stats", 0, || stats_of(&mut served.oneshot))?;
    check_phase(&traced_phase, &inputs, &golden, &mut out.tally);
    let log = served
        .daemon
        .access_log
        .clone()
        .expect("traced daemon logs");
    drop(served); // drain flushes the access log
    let records = oneshot_records(&log);
    let _ = std::fs::remove_file(&log);
    // the log pairs with the client's ops by position
    out.tally
        .record(records.len() == traced_phase.oneshots.len(), || {
            format!(
                "access log has {} one-shot records for {} one-shots",
                records.len(),
                traced_phase.oneshots.len()
            )
        });
    let misses: Vec<&LogRecord> = records.iter().filter(|r| r.outcome == "miss").collect();
    let n_miss = misses.len();
    out.set(
        "serve.queue_wait_ms_p50",
        stats::median(&ms(misses.iter().map(|r| r.queue_wait_us / 1e6))),
        n_miss,
        "access log queue_wait_us, misses",
    );
    out.set(
        "serve.execute_ms_p50",
        stats::median(&ms(misses.iter().map(|r| r.execute_us / 1e6))),
        n_miss,
        "access log execute_us, misses",
    );
    let wire: Vec<f64> = records
        .iter()
        .zip(&traced_phase.oneshots)
        .filter(|(r, _)| r.outcome == "hit")
        .map(|(r, op)| op.rt_s * 1e3 - r.latency_us / 1e3)
        .collect();
    out.set(
        "serve.wire_ms_p50",
        stats::median(&wire),
        wire.len(),
        "client round trip minus access-log latency, hits",
    );
    let hits = num(&after, &["cache_hits"]) - num(&before, &["cache_hits"]);
    let answered = hits + num(&after, &["cache_misses"]) - num(&before, &["cache_misses"]);
    out.set(
        "serve.hit_ratio",
        hits / answered.max(1.0),
        answered as usize,
        "admin stats hits / answered",
    );
    let failed: f64 = ["rejects", "timeouts", "errors"]
        .iter()
        .map(|k| num(&after, &[k]))
        .sum();
    out.set(
        "serve.failed",
        failed,
        answered as usize,
        "admin stats rejects + timeouts + errors",
    );
    let busy = num(&after, &["pool", "busy_us"]) - num(&before, &["pool", "busy_us"]);
    let idle = num(&after, &["pool", "idle_us"]) - num(&before, &["pool", "idle_us"]);
    out.set(
        "pool.busy_frac",
        busy / (busy + idle).max(1.0),
        1,
        "daemon engine pool busy / (busy + idle)",
    );
    let traced_ops = (traced_phase.oneshots.len() + traced_phase.deltas.len()) as f64;
    out.set(
        "trace.overhead_frac",
        1.0 - (traced_ops / traced_phase.wall_s) / out.get("ops_per_s").expect("set above"),
        traced_ops as usize,
        "ops_per_s lost to the access log and client spans",
    );

    let applies = replay_session(&inputs, &mut out.tally, tracer);
    let n = applies.len().max(1) as f64;
    let stage_ms = |st: Stage| -> f64 {
        applies
            .iter()
            .filter_map(|(_, p)| p.stage(st))
            .map(|s| s.self_us as f64 / 1e3)
            .sum::<f64>()
            / n
    };
    out.set(
        "sessions.route_table_ms",
        stage_ms(Stage::RouteTableBuild),
        applies.len(),
        "apply route_table_build self",
    );
    out.set(
        "sessions.traffic_ms",
        stage_ms(Stage::TrafficKernels),
        applies.len(),
        "apply traffic_kernels self",
    );
    out.set(
        "sessions.mapping_ms",
        stage_ms(Stage::Mapping),
        applies.len(),
        "apply mapping self",
    );
    let other: f64 = applies
        .iter()
        .map(|(wall, p)| {
            let staged: u64 = p
                .stages
                .iter()
                .filter(|s| s.stage.is_top_level())
                .map(|s| s.wall_us)
                .sum();
            wall * 1e3 - staged as f64 / 1e3
        })
        .sum::<f64>()
        / n;
    out.set(
        "sessions.other_ms",
        other,
        applies.len(),
        "apply wall minus top-level stage wall",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_core::{AcceleratorConfig, SimReport};
    use aurora_model::{LayerShape, ModelId};

    fn report() -> SimReport {
        let req = SimRequest::builder(ModelId::Gcn)
            .config(AcceleratorConfig::small(2))
            .graph(GraphSpec::Ring { vertices: 16 })
            .layer(LayerShape::new(4, 2))
            .build()
            .expect("valid request");
        AuroraSimulator::new(req.config).run(&req).expect("runs")
    }

    #[test]
    fn raw_report_is_the_report_byte_for_byte() {
        let report = report();
        let line = serde_json::to_string(&SimResponse::ok(7, "d", true, report.clone()))
            .expect("serializes");
        let want = serde_json::to_string(&report).expect("serializes");
        assert_eq!(raw_report(&line), want);
    }
}

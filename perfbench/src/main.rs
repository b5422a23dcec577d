//! The benchmark's command-line entry point.
//!
//! ```text
//! perfbench --workload paper-k32|reddit-k32|serve-k32 --seed N
//!           --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]
//! perfbench --write-golden PATH
//! ```
//!
//! Prints a table of metrics with their sample counts, then, as the last
//! line of stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (every end-to-end metric untraced, every per-layer metric
//! traced). `--write-golden` regenerates the committed fingerprints.

use aurora_core::AuroraSimulator;
use perfbench::batch::{self, Batch};
use perfbench::check::{fingerprint, Fingerprint, Golden};
use perfbench::outcome::{Outcome, END_TO_END, PER_LAYER};
use perfbench::serve;
use perfbench::spec;
use perfbench::stream::DeltaStream;
use perfbench::trace::Tracer;
use rayon::pool::ThreadPool;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    out_dir: PathBuf,
    write_golden: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .unwrap_or_default();
    let mut a = Args {
        workload: String::new(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::NOMINAL_SECONDS,
        trace: false,
        serve_bin: exe_dir.join("aurora_serve"),
        out_dir: PathBuf::from(".bench_out"),
        write_golden: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--serve-bin" => a.serve_bin = PathBuf::from(value()?),
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--write-golden" => a.write_golden = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.write_golden.is_none()
        && !matches!(
            a.workload.as_str(),
            "paper-k32" | "reddit-k32" | "serve-k32"
        )
    {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

/// Regenerates the committed fingerprints: every batch request and the
/// warm-up, the whole one-shot universe, and the session stream's final
/// state for the default and held-out seeds at the nominal run length.
fn write_golden(path: &PathBuf) -> Result<(), String> {
    let pool = ThreadPool::new(spec::THREADS);
    let mut golden = Golden::default();
    let mut reqs: Vec<_> = spec::PAPER_SUITE
        .iter()
        .chain([&spec::REDDIT, &spec::WARMUP])
        .map(|&d| spec::dataset_request(d))
        .collect();
    reqs.extend((0..spec::ONESHOT_UNIVERSE).map(spec::oneshot_request));
    for req in &reqs {
        let report = pool
            .install(|| AuroraSimulator::new(req.config).run(req))
            .map_err(|e| format!("{}: {e}", req.workload_label()))?;
        golden.entries.insert(req.digest(), fingerprint(&report));
    }
    for seed in [spec::DEFAULT_SEED, spec::HELD_OUT_SEED] {
        let stream = DeltaStream::new(seed, spec::DELTAS);
        let sim = AuroraSimulator::new(stream.base.config);
        let mut session = pool
            .install(|| sim.open_session(&stream.base))
            .map_err(|e| e.to_string())?;
        for d in &stream.deltas {
            pool.install(|| session.apply(d))
                .map_err(|e| e.to_string())?;
        }
        let fp = fingerprint(session.last_report());
        golden.entries.insert(
            format!("{}:{}", Golden::session_key(seed), stream.deltas.len()),
            Fingerprint {
                report: format!("{}/{}", session.digest(), fp.report),
                cycles: fp.cycles,
            },
        );
    }
    let doc = serde_json::to_string_pretty(&golden).expect("golden serializes");
    std::fs::write(path, doc + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "wrote {} fingerprints to {}",
        golden.entries.len(),
        path.display()
    );
    Ok(())
}

fn run(a: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("{}: {e}", a.out_dir.display()))?;
    let mut tracer = Tracer::new(a.trace, Instant::now());
    let out = match a.workload.as_str() {
        "paper-k32" => batch::run(Batch::Paper, a.seed, a.seconds, a.trace, &mut tracer),
        "reddit-k32" => batch::run(Batch::Reddit, a.seed, a.seconds, a.trace, &mut tracer),
        _ => serve::run(
            &a.serve_bin,
            &a.out_dir,
            a.seed,
            a.seconds,
            a.trace,
            &mut tracer,
        )?,
    };
    if a.trace {
        let path = a
            .out_dir
            .join(format!("trace-{}-{}.json", a.workload, a.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(out)
}

fn main() -> ExitCode {
    // every engine pool in this process, the global one included, is
    // this wide
    std::env::set_var("AURORA_THREADS", spec::THREADS.to_string());
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_golden {
        return match write_golden(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(mut out) => {
            let wanted = if args.trace {
                out.fill_absent(PER_LAYER);
                PER_LAYER
            } else {
                END_TO_END
            };
            print!("{}", out.render(wanted));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

use antennae_bench::workloads::uniform_points;
use antennae_core::bounds::theorem2_spread_threshold;
use antennae_core::instance::Instance;
use antennae_core::solver::Solver;
use antennae_core::verify::VerificationEngine;
use antennae_parallel::default_threads;
use std::io::{ErrorKind, Write};
use std::time::Instant;

fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest.trim().trim_end_matches(" kB").trim().parse().unwrap();
            return kb / 1024.0;
        }
    }
    0.0
}

/// Runs the probe; stdout closing early (`million_probe | head`) ends the
/// run quietly instead of panicking.
fn main() {
    if let Err(e) = run() {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("million_probe: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> std::io::Result<()> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let mut out = std::io::stdout().lock();
    // The thread and core counts lead the output: every figure below
    // depends on them.
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    writeln!(out, "n: {n} threads: {} nproc: {nproc}", default_threads())?;
    let t0 = Instant::now();
    let points = uniform_points(n, 42);
    writeln!(out, "gen: {:.2}s", t0.elapsed().as_secs_f64())?;
    let t = Instant::now();
    let instance = Instance::new(points).unwrap();
    writeln!(out, "instance (MST): {:.2}s", t.elapsed().as_secs_f64())?;
    let t = Instant::now();
    let outcome = Solver::on(&instance)
        .budget(3, theorem2_spread_threshold(3))
        .run()
        .unwrap();
    writeln!(out, "solve: {:.2}s", t.elapsed().as_secs_f64())?;
    let t = Instant::now();
    let report = VerificationEngine::new().verify(&instance, &outcome.scheme);
    writeln!(
        out,
        "verify: {:.2}s strongly_connected={}",
        t.elapsed().as_secs_f64(),
        report.is_strongly_connected
    )?;
    writeln!(
        out,
        "total: {:.2}s peak_rss: {:.0} MB",
        t0.elapsed().as_secs_f64(),
        rss_mb()
    )?;
    out.flush()
}

//! The repository benchmark: three SHIELD workloads, each checked for
//! correctness and encryption at rest, with a separate traced run that
//! attributes op time to layers. See `README.md` in this directory.
//!
//! Usage: `shieldbench --workload <fill|ds_read|ds_replica> --seed <n>
//! --seconds <n> --trace <0|1>`. The last line of standard output is one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). An op that returns an error counts as failed; a
//! wrong value or a failed end-of-run check exits non-zero without it.

mod data;
mod report;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use report::Metric;
use trace::Tracer;
use workload::{prepare, Measured, Prepared, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Where the traced run writes its span log.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some((
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                    value,
                ))
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let (workload, name) = workload.ok_or("--workload <fill|ds_read|ds_replica> is required")?;
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shieldbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shieldbench: {} failed: {e}", args.name);
            ExitCode::FAILURE
        }
    }
}

/// Sets the store up and times it.
fn timed_prepare(a: &Args, tracer: Option<Arc<Tracer>>) -> Result<(Prepared, f64), String> {
    let t = Instant::now();
    let p = prepare(a.workload, a.seed, tracer)?;
    Ok((p, t.elapsed().as_secs_f64()))
}

/// Sets up `SETUPS` times (each store torn down before the next is
/// built), runs the timed phase on the last, and reports the median
/// set-up time.
fn untraced(a: &Args, setups: usize) -> Result<(Measured, Vec<Metric>), String> {
    let mut times = Vec::new();
    let mut ready = None;
    for _ in 0..setups {
        if let Some(old) = ready.take() {
            Prepared::close(old);
        }
        let (p, s) = timed_prepare(a, None)?;
        times.push(s);
        ready = Some(p);
    }
    let m = ready.expect("at least one set-up").run(a.seconds)?;
    let e2e = report::end_to_end(a.workload, &m, report::median(&mut times), setups);
    Ok((m, e2e))
}

fn run(a: &Args) -> Result<String, String> {
    println!(
        "shieldbench workload={} seed={} seconds={} trace={} threads_available={}",
        a.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "settings: open_shield defaults (AES-128-CTR, 512 B WAL buffer, secure DEK cache); \
         KDS sstoolkit_like (2.75 ms generate, 0.5 ms fetch); 16 B keys, 100 B values; \
         WAL on, flush policy sync=false on every put; closed-loop clients"
    );
    if !a.trace {
        let (m, e2e) = untraced(a, SETUPS)?;
        print_run("untraced", &m, &e2e);
        return Ok(report::result_json(report::total_ops(&m), m.failed, &e2e));
    }

    let (base, base_e2e) = untraced(a, 1)?;
    print_run("untraced", &base, &base_e2e);
    let tracer = Tracer::new();
    let (p, setup_s) = timed_prepare(a, Some(tracer.clone()))?;
    let m = p.run(a.seconds)?;
    let e2e = report::end_to_end(a.workload, &m, setup_s, 1);
    print_run("traced", &m, &e2e);
    let broken = report::unbalanced(&tracer);
    if !broken.is_empty() {
        return Err(format!(
            "layer self times do not sum to op wall time: {broken:?}"
        ));
    }
    let traced = m.traced.as_ref().expect("traced run records trace data");
    // The overhead covers the bounded metrics and CPU per op.
    let with_cpu = |e2e: Vec<Metric>, m: &Measured| [e2e, vec![report::cpu_us_per_op(m)]].concat();
    let layers = report::per_layer(
        a.workload,
        &m,
        traced,
        &with_cpu(base_e2e, &base),
        &with_cpu(e2e, &m),
    );
    for l in &layers {
        println!("{:<48} {:>14.4} {}", l.name, l.value, l.unit);
    }
    write_spans(a, &tracer)?;
    Ok(report::result_json(
        report::total_ops(&m),
        m.failed,
        &layers,
    ))
}

fn print_run(label: &str, m: &Measured, e2e: &[Metric]) {
    println!(
        "-- {label}: {:.3} s timed, {:.3} s CPU",
        m.elapsed_s, m.cpu_s
    );
    let cpu = report::cpu_us_per_op(m);
    for x in report::per_op(m).iter().chain([&cpu]).chain(e2e) {
        println!(
            "{:<24} {:>14.3} {:<6} n={}",
            x.name,
            x.value,
            x.unit,
            x.n.unwrap_or(0)
        );
    }
    println!(
        "{:<24} {:>14} {:<6}",
        "ops_attempted",
        report::total_ops(m),
        "count"
    );
    println!("{:<24} {:>14} {:<6}", "ops_failed", m.failed, "count");
    for f in &m.failures {
        println!("  failed op: {f}");
    }
}

/// Writes the kept spans as TSV (one line per span) once the run is over.
fn write_spans(a: &Args, tracer: &Tracer) -> Result<(), String> {
    let spans = tracer.spans();
    let mut out =
        String::from("id\tparent\tthread\top\tlayer\tnode\tcall\tstart_ns\tend_ns\tself_ns\n");
    for s in &spans {
        let (layer, node, call) = match s.layer {
            Some((l, n, c)) => (l.name(), n.to_string(), format!("{c:?}")),
            None => ("op", String::new(), String::new()),
        };
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{layer}\t{node}\t{call}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.thread,
            s.op.name(),
            s.start_ns,
            s.end_ns,
            s.self_ns
        );
    }
    std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("create {SPAN_DIR}: {e}"))?;
    let path = format!("{SPAN_DIR}/spans-{}-seed{}.tsv", a.name, a.seed);
    std::fs::write(&path, out).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {} spans to {path}", spans.len());
    Ok(())
}

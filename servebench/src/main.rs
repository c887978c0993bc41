//! `servebench` — the serving benchmark of LevelDB++.
//!
//! ```text
//! servebench --workload <feed_read|large_docs> --seed N --seconds S
//!            --trace <0|1> --bin-dir DIR [--out DIR] [--tiny]
//! ```
//!
//! Starts the release `ldbpp_server` (from `--bin-dir`) with its deployed
//! defaults, preloads it, and drives the workload from this process over
//! two closed-loop connections for `--seconds`, checking every answer.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
//! it runs the traced networked phase plus the in-process replay and
//! reports the per-layer metrics. Every metric is printed as
//! `name value unit`; the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod checker;
mod net;
mod replay;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldbpp_common::json::Value;

use checker::Checker;
use net::{ConnOutcome, Sample, ServerProc};
use trace::{durations_by_name, median_us, percentile, Tracer};
use workload::{Record, Spec, Stream, CLASSES};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// HELLO round trips timed after the traced networked phase.
const HELLO_PROBES: usize = 1000;

/// End-to-end metrics of the result line (`--trace 0`), as
/// `(name, unit)`. The LOOKUP and RANGELOOKUP latencies, the p95 and p99
/// of each op class and `error_frac` are printed too but left out of the
/// result line: see README.md for why.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_s", "1/s"),
    ("put_p50_us", "us"),
    ("get_p50_us", "us"),
    ("space_amp", "ratio"),
    ("server_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("proto.hello_rtt_us", "us"),
    ("proto.transport_put_us", "us"),
    ("proto.transport_get_us", "us"),
    ("proto.codec_us", "us"),
    ("proto.wire_bytes_per_op", "B"),
    ("proto.shed_busy", "count"),
    ("proto.protocol_errors", "count"),
    ("json.parse_us", "us"),
    ("json.parse_ns_per_byte", "ns/B"),
    ("json.write_us", "us"),
    ("core.put_us", "us"),
    ("core.get_us", "us"),
    ("core.lookup_us", "us"),
    ("core.index_maint_us", "us"),
    ("core.get_self_us", "us"),
    ("core.lookup_hits_per_op", "count"),
    ("core.validation_reads_per_hit", "count"),
    ("lsm.get_us", "us"),
    ("lsm.put_us", "us"),
    ("lsm.block_reads_per_get", "count"),
    ("lsm.block_read_bytes_per_get", "B"),
    ("lsm.cache_hit_ratio", "ratio"),
    ("lsm.table_opens", "count"),
    ("lsm.bloom_checks_per_lookup", "count"),
    ("lsm.bloom_negative_ratio", "ratio"),
    ("lsm.block_reads_per_range", "count"),
    ("lsm.zonemap_prune_ratio", "ratio"),
    ("lsm.group_commits_per_put", "count"),
    ("lsm.wal_syncs_per_put", "count"),
    ("lsm.group_size_mean", "count"),
    ("lsm.write_amp", "ratio"),
    ("lsm.compaction_bytes_written", "B"),
    ("lsm.flushes", "count"),
    ("lsm.compactions", "count"),
    ("lsm.bg_idle_wait_s", "s"),
    ("trace.overhead_put_us", "us"),
    ("trace.overhead_get_us", "us"),
    ("recon.put_residual_us", "us"),
    ("recon.get_residual_us", "us"),
];

/// Command-line settings.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out: PathBuf,
    tiny: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::new(),
        out: PathBuf::from(".bench_out"),
        tiny: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--tiny" {
            args.tiny = true;
            i += 1;
            continue;
        }
        let v = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {v}");
        match flag {
            "--workload" => args.workload = v.clone(),
            "--seed" => args.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => args.trace = v.parse::<u8>().map_err(|_| bad())? != 0,
            "--bin-dir" => args.bin_dir = PathBuf::from(v),
            "--out" => args.out = PathBuf::from(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "servebench: {e}\nusage: servebench --workload <{}> --seed N --seconds S \
                 --trace <0|1> --bin-dir DIR [--out DIR] [--tiny]",
                Spec::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_value().to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result of one run.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_value(&self) -> Value {
        let metrics = self.metrics.iter().map(|(name, v, unit)| {
            let m = Value::object([("value", Value::Float(*v)), ("unit", Value::str(*unit))]);
            (name.to_string(), m)
        });
        Value::object([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", Value::Object(metrics.collect())),
        ])
    }
}

/// Removes the run's scratch directory, also on early return.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A set-up server with its checker, ready for the measured phase.
struct Ready {
    server: ServerProc,
    checker: Checker,
    work: PathBuf,
}

/// Start a server on a fresh directory and preload it; returns the
/// seconds from process start to the last preload ack. With `settle`, it
/// then waits, untimed, until the preload's flushes and compactions are
/// idle, so the measured phase starts from a quiesced tree.
fn set_up(
    args: &Args,
    spec: &Spec,
    scratch: &Path,
    round: usize,
    records: &[Record],
    settle: bool,
) -> Result<(Ready, f64), String> {
    let work = scratch.join(format!("setup-{round}"));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let checker = Checker::default();
    let t0 = Instant::now();
    let server = ServerProc::start(
        &args.bin_dir.join("ldbpp_server"),
        &work.join("db"),
        &spec.server_flags(),
    )?;
    net::preload(&server.addr, records, spec.batch, &checker)?;
    let secs = t0.elapsed().as_secs_f64();
    if settle {
        let t1 = Instant::now();
        let violations = net::settle(&server.addr)?;
        println!("settle_s {} s", t1.elapsed().as_secs_f64());
        println!("settle.live_check_violations {violations} count");
    }
    Ok((
        Ready {
            server,
            checker,
            work,
        },
        secs,
    ))
}

fn run(args: &Args) -> Result<Report, String> {
    let spec = Spec::named(&args.workload, args.tiny)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    for bin in ["ldbpp_server", "ldbpp_tool"] {
        if !args.bin_dir.join(bin).is_file() {
            return Err(format!("{bin} not found in {}", args.bin_dir.display()));
        }
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let scratch = Scratch(args.out.join(format!("work-{}", std::process::id())));
    let records = Arc::new(workload::preload(&spec, args.seed));
    let preload_bytes: u64 = records
        .iter()
        .map(|r| (r.key.len() + r.doc.len()) as u64)
        .sum();
    let header: Vec<(&str, String)> = fingerprint()
        .into_iter()
        .chain(settings(args, &spec, preload_bytes))
        .collect();
    for (k, v) in &header {
        println!("# {k}: {v}");
    }

    // Set-up: server start plus preload, repeated; the last one is kept
    // and settled.
    let repeats = if args.trace || args.tiny {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setup_times = Vec::new();
    let mut ready = None;
    for round in 0..repeats {
        let last = round + 1 == repeats;
        let (r, secs) = set_up(args, &spec, &scratch.0, round, &records, last)?;
        setup_times.push(secs);
        if last {
            ready = Some(r);
        } else {
            drop(r.server);
            let _ = std::fs::remove_dir_all(&r.work);
        }
    }
    let Ready {
        server,
        checker,
        work,
    } = ready.expect("at least one set-up");

    // Measured phase: two closed-loop connections.
    let before = net::stats(&server.addr)?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut tracers: Vec<Tracer> = (0..2).map(|_| Tracer::new(start)).collect();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(conn, tracer)| {
                let mut stream = Stream::new(&spec, args.seed, conn as u64, records.clone());
                let (addr, checker) = (&server.addr, &checker);
                s.spawn(move || {
                    let tracer = if args.trace { Some(tracer) } else { None };
                    net::drive(addr, conn as u64, &mut stream, checker, deadline, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = outcomes
        .iter()
        .filter_map(|o| o.finished)
        .max()
        .unwrap_or_else(Instant::now);
    let after = net::stats(&server.addr)?;
    let hello = if args.trace {
        net::hello_rtts(&server.addr, HELLO_PROBES)?
    } else {
        Vec::new()
    };
    let rss_mib = server.peak_rss_mib()?;
    server.shutdown()?;
    let mut errors: Vec<String> = outcomes.iter().flat_map(|o| o.errors.clone()).collect();
    if let Err(e) = net::tool_check(&args.bin_dir.join("ldbpp_tool"), &work) {
        errors.push(e);
    }

    let samples: Vec<Sample> = outcomes.iter().flat_map(|o| o.samples.clone()).collect();
    let put_bytes: u64 = outcomes.iter().map(|o| o.put_bytes).sum();
    let mut attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let mut failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let disk = net::dir_bytes(&work);
    let space_amp = disk as f64 / (preload_bytes + put_bytes) as f64;
    let elapsed = (end - start).as_secs_f64();

    let mut e2e: BTreeMap<String, f64> = BTreeMap::new();
    e2e.insert("setup_s".into(), median_f64(&setup_times));
    e2e.insert("ops_s".into(), samples.len() as f64 / elapsed);
    for (class, name) in CLASSES.iter().enumerate() {
        let mut ns: Vec<u64> = samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ns)
            .collect();
        println!("samples.{name} {} count", ns.len());
        if ns.is_empty() {
            continue;
        }
        for p in [50, 95, 99] {
            e2e.insert(
                format!("{name}_p{p}_us"),
                percentile(&mut ns, p as f64) / 1e3,
            );
        }
    }
    e2e.insert("space_amp".into(), space_amp);
    e2e.insert("server_rss_mib".into(), rss_mib);
    e2e.insert("error_frac".into(), failed as f64 / attempted.max(1) as f64);
    println!("setup_s.rounds {setup_times:?} s");
    println!("disk_bytes {disk} B");
    for counter in ["flushes", "compactions", "wal_syncs"] {
        let key = format!("merged_io.{counter}");
        let delta =
            after.get(&key).copied().unwrap_or(0.0) - before.get(&key).copied().unwrap_or(0.0);
        println!("phase.{counter} {delta} count");
    }
    println!("live_bytes {} B", preload_bytes + put_bytes);
    for (name, v) in &e2e {
        println!("{name} {v} {}", unit_of(name));
    }

    let metrics = if args.trace {
        let replay = replay::run(
            &spec,
            &work,
            Stream::new(&spec, args.seed, 2, records.clone()),
            &checker,
            args.seconds,
        )?;
        attempted += replay.attempted;
        failed += replay.errors.len() as u64;
        errors.extend(replay.errors.iter().cloned());
        // The replay wrote to the database too; it is closed now.
        if let Err(e) = net::tool_check(&args.bin_dir.join("ldbpp_tool"), &work) {
            errors.push(format!("after replay: {e}"));
        }
        let layer = per_layer(&samples, &before, &after, &hello, &replay, put_bytes);
        write_spans(args, &tracers, &replay.tracer)?;
        layer
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| (*name, e2e.get(*name).copied().unwrap_or(0.0), *unit))
            .collect()
    };
    if !args.trace {
        for (name, v, unit) in &metrics {
            if *v == 0.0 {
                errors.push(format!(
                    "{name} read 0 {unit}: the workload did not exercise it"
                ));
            }
        }
    }
    for e in &errors {
        eprintln!("servebench: FAILED: {e}");
    }
    let report = Report {
        correct: errors.is_empty(),
        attempted,
        failed: failed.max(errors.len() as u64),
        metrics,
    };
    save_result(args, &header, &report)?;
    Ok(report)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or(if name.ends_with("_us") { "us" } else { "ratio" })
}

fn median_f64(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The layer a span belongs to: the part of its name before the dot.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-layer metrics of a traced run, in [`PER_LAYER`] order; also prints
/// each layer's self time and the GET/PUT reconciliation table.
fn per_layer(
    samples: &[Sample],
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    hello: &[u64],
    replay: &replay::Replay,
    put_bytes: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let d = |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let net_p50 = |class: usize| {
        median_us(
            samples
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.ns)
                .collect(),
        )
    };
    let spans = &replay.tracer.spans;
    let own = replay.tracer.self_times();
    let durs = durations_by_name(spans);
    let med = |name: &str| durs.get(name).map_or(0.0, |v| median_us(v.clone()));
    let ops_of = |class: usize| replay.ops.iter().filter(move |o| o.class == class);
    // The replay's root span p50, over the detailed ops or the plain ones.
    let pipeline_p50 = |class: usize, detail: bool| {
        median_us(
            ops_of(class)
                .filter(|o| o.detail == detail)
                .map(|o| spans[o.spans.start].dur())
                .collect(),
        )
    };
    let sum = |class: usize, f: &dyn Fn(&replay::OpRecord) -> u64| -> f64 {
        ops_of(class).map(f).sum::<u64>() as f64
    };
    let count = |class: usize| ops_of(class).count() as f64;

    // Each layer's self time, per op class: median over detailed ops of
    // the sum of the op's spans in that layer.
    let mut layer_self: BTreeMap<(usize, &str), Vec<i64>> = BTreeMap::new();
    for o in replay.ops.iter().filter(|o| o.detail) {
        let mut per: HashMap<&str, i64> = HashMap::new();
        for i in o.spans.clone() {
            *per.entry(layer_of(spans[i].name)).or_default() += own[i];
        }
        for (layer, ns) in per {
            layer_self.entry((o.class, layer)).or_default().push(ns);
        }
    }
    let self_med = |class: usize, layer: &str| {
        layer_self.get(&(class, layer)).map_or(0.0, |v| {
            let mut v = v.clone();
            v.sort_unstable();
            v[v.len() / 2] as f64 / 1e3
        })
    };
    println!("# layer self time, median per op, us (replay, one connection)");
    for (class, name) in CLASSES.iter().enumerate() {
        if count(class) == 0.0 {
            continue;
        }
        let row: Vec<String> = ["op", "proto", "json", "core", "lsm"]
            .iter()
            .map(|l| format!("{l}={:.2}", self_med(class, l)))
            .collect();
        println!("self.{name} {}", row.join(" "));
    }

    // Reconciliation: layer self times plus transport against the
    // networked median. Transport is measured against the plain ops, the
    // pipeline without child spans.
    let (mut transport, mut residual) = ([0.0; 2], [0.0; 2]);
    println!("# reconciliation, us: layers + transport = sum vs networked p50 (residual)");
    for class in [0, 1] {
        let net = net_p50(class);
        transport[class] = net - pipeline_p50(class, false);
        let layers: f64 = ["op", "proto", "json", "core", "lsm"]
            .iter()
            .map(|l| self_med(class, l))
            .sum();
        let sum = layers + transport[class];
        residual[class] = net - sum;
        println!(
            "recon.{} layers={layers:.2} transport={:.2} sum={sum:.2} net_p50={net:.2} residual={:.2}",
            CLASSES[class], transport[class], residual[class]
        );
    }

    let codec: Vec<u64> = replay
        .ops
        .iter()
        .filter(|o| o.detail)
        .map(|o| {
            o.spans
                .clone()
                .filter(|&i| spans[i].name.starts_with("proto."))
                .map(|i| spans[i].dur())
                .sum()
        })
        .collect();
    let parse_ns: u64 = durs.get("json.parse").map_or(0, |v| v.iter().sum());
    let parsed: u64 = replay.ops.iter().map(|o| o.parsed_bytes).sum();
    let (put, get, lookup, range) = (0, 1, 2, 3);
    let puts_net = samples.iter().filter(|s| s.class == put).count() as f64;
    let core_put = med("core.put");
    let core_get = med("core.get");
    let values: HashMap<&str, f64> = HashMap::from([
        ("proto.hello_rtt_us", median_us(hello.to_vec())),
        ("proto.transport_put_us", transport[put]),
        ("proto.transport_get_us", transport[get]),
        ("proto.codec_us", median_us(codec)),
        (
            "proto.wire_bytes_per_op",
            div(
                replay.ops.iter().map(|o| o.wire_bytes).sum::<u64>() as f64,
                replay.ops.len() as f64,
            ),
        ),
        ("proto.shed_busy", d("server.shed_busy")),
        ("proto.protocol_errors", d("server.protocol_errors")),
        ("json.parse_us", med("json.parse")),
        (
            "json.parse_ns_per_byte",
            div(parse_ns as f64, parsed as f64),
        ),
        ("json.write_us", med("json.write")),
        ("core.put_us", core_put),
        ("core.get_us", core_get),
        ("core.lookup_us", med("core.lookup")),
        ("core.index_maint_us", core_put - med("lsm.put")),
        ("core.get_self_us", core_get - med("lsm.get")),
        (
            "core.lookup_hits_per_op",
            div(sum(lookup, &|o| o.hits as u64), count(lookup)),
        ),
        (
            "core.validation_reads_per_hit",
            div(
                sum(lookup, &|o| o.primary.block_reads + o.primary.cache_hits),
                sum(lookup, &|o| o.hits as u64),
            ),
        ),
        ("lsm.get_us", med("lsm.get")),
        ("lsm.put_us", med("lsm.put")),
        (
            "lsm.block_reads_per_get",
            div(sum(get, &|o| o.primary.block_reads), count(get)),
        ),
        (
            "lsm.block_read_bytes_per_get",
            div(sum(get, &|o| o.primary.block_read_bytes), count(get)),
        ),
        (
            "lsm.cache_hit_ratio",
            div(
                sum(get, &|o| o.primary.cache_hits),
                sum(get, &|o| o.primary.cache_hits + o.primary.block_reads),
            ),
        ),
        ("lsm.table_opens", d("merged_io.table_opens")),
        (
            "lsm.bloom_checks_per_lookup",
            div(sum(lookup, &|o| o.all.bloom_checks), count(lookup)),
        ),
        (
            "lsm.bloom_negative_ratio",
            div(
                sum(lookup, &|o| o.all.bloom_negatives),
                sum(lookup, &|o| o.all.bloom_checks),
            ),
        ),
        (
            "lsm.block_reads_per_range",
            div(sum(range, &|o| o.all.block_reads), count(range)),
        ),
        (
            "lsm.zonemap_prune_ratio",
            div(
                sum(range, &|o| o.all.zonemap_prunes),
                sum(range, &|o| o.all.zonemap_prunes + o.all.block_reads),
            ),
        ),
        (
            "lsm.group_commits_per_put",
            div(d("merged_io.group_commits"), puts_net),
        ),
        (
            "lsm.wal_syncs_per_put",
            div(d("merged_io.wal_syncs"), puts_net),
        ),
        (
            "lsm.group_size_mean",
            div(d("merged_io.grouped_writes"), d("merged_io.group_commits")),
        ),
        (
            "lsm.write_amp",
            div(
                d("merged_io.wal_bytes_written")
                    + d("merged_io.flush_bytes_written")
                    + d("merged_io.compaction_bytes_written"),
                put_bytes as f64,
            ),
        ),
        (
            "lsm.compaction_bytes_written",
            d("merged_io.compaction_bytes_written"),
        ),
        ("lsm.flushes", d("merged_io.flushes")),
        ("lsm.compactions", d("merged_io.compactions")),
        ("lsm.bg_idle_wait_s", replay.bg_idle_wait_s),
        (
            "trace.overhead_put_us",
            pipeline_p50(put, true) - pipeline_p50(put, false),
        ),
        (
            "trace.overhead_get_us",
            pipeline_p50(get, true) - pipeline_p50(get, false),
        ),
        ("recon.put_residual_us", residual[put]),
        ("recon.get_residual_us", residual[get]),
    ]);
    if count(range) > 0.0 {
        println!("core.range_us {} us", med("core.range"));
    }
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let v = values[name];
            println!("{name} {v} {unit}");
            (*name, v, *unit)
        })
        .collect()
}

/// Host fingerprint: core count, compiler and revision.
fn fingerprint() -> Vec<(&'static str, String)> {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unavailable".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", cmd("rustc", &["-V"])),
        ("git_rev", cmd("git", &["rev-parse", "HEAD"])),
    ]
}

fn settings(args: &Args, spec: &Spec, preload_bytes: u64) -> Vec<(&'static str, String)> {
    // The server runs with the default memtable size.
    let memtables = spec.shards * replay::server_options(spec.shards).base.write_buffer_size;
    vec![
        ("workload", spec.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("connections", "2 closed-loop".into()),
        (
            "server_flags",
            format!("--listen 127.0.0.1:0 {}", spec.server_flags().join(" ")),
        ),
        ("preload_records", spec.preload.to_string()),
        ("preload_bytes", preload_bytes.to_string()),
        (
            "preload_memtables",
            format!("{:.2}", preload_bytes as f64 / memtables as f64),
        ),
        ("doc_bytes", spec.doc_bytes.to_string()),
    ]
}

/// Write the result with the host fingerprint and run settings in
/// `header` to `--out`.
fn save_result(args: &Args, header: &[(&str, String)], report: &Report) -> Result<(), String> {
    let run = header
        .iter()
        .map(|(k, v)| (k.to_string(), Value::str(v.clone())));
    let doc = Value::object([
        ("run", Value::Object(run.collect())),
        ("result", report.to_value()),
    ]);
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    std::fs::write(&path, doc.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write the traced run's spans to `--out`.
fn write_spans(args: &Args, net: &[Tracer], replay: &Tracer) -> Result<(), String> {
    let stem = args
        .out
        .join(format!("{}-seed{}", args.workload, args.seed));
    let write = |suffix: &str, t: &Tracer| {
        let path = PathBuf::from(format!("{}-{suffix}.tsv", stem.display()));
        let f = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        t.write_tsv(std::io::BufWriter::new(f))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    for (i, t) in net.iter().enumerate() {
        write(&format!("spans-net{i}"), t)?;
    }
    write("spans-replay", replay)
}

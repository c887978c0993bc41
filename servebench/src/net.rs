//! The networked side: the `ldbpp_server` process, the preload, the two
//! closed-loop client connections of the measured phase, and STATS.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ldbpp_common::json::Value;
use ldbpp_proto::{Client, WireValue, WriteOp};

use crate::checker::{Checker, Query};
use crate::trace::Tracer;
use crate::workload::{Op, Record, Stream, K};

/// Connections the preload spreads its BATCH requests over.
const PRELOAD_CONNS: usize = 8;

/// A running `ldbpp_server`. Dropping it kills the process and waits.
pub struct ServerProc {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    /// `host:port` the server listens on.
    pub addr: String,
}

impl ServerProc {
    /// Start `bin` on `db` with `flags` and wait until it listens.
    pub fn start(bin: &Path, db: &Path, flags: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .arg(db)
            .args(["--listen", "127.0.0.1:0"])
            .args(flags)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let mut server = ServerProc {
            child,
            stdout: None,
            addr: String::new(),
        };
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("server stdout: {e}"))?;
            if let Some(addr) = line.strip_prefix("listening on ") {
                server.addr = addr.trim().to_string();
                break;
            }
        }
        if server.addr.is_empty() {
            return Err("server exited before listening".into());
        }
        server.stdout = Some(std::thread::spawn(move || lines.for_each(drop)));
        Ok(server)
    }

    /// Peak resident set size of the server (VmHWM), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Graceful SHUTDOWN (drain, flush, ack), then wait for the exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        Client::connect(self.addr.as_str())
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => return Err("server did not exit after SHUTDOWN".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// Load `records` through BATCH requests over [`PRELOAD_CONNS`]
/// connections.
pub fn preload(
    addr: &str,
    records: &[Record],
    batch: usize,
    checker: &Checker,
) -> Result<(), String> {
    let chunks: Vec<&[Record]> = records.chunks(batch).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..PRELOAD_CONNS)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    while let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let ops = chunk
                            .iter()
                            .map(|r| {
                                checker.sent(r);
                                WriteOp::Put {
                                    pk: r.key.clone(),
                                    doc: r.doc.to_vec(),
                                }
                            })
                            .collect();
                        let (applied, _) = c.batch(ops).map_err(|e| format!("preload: {e}"))?;
                        if applied != chunk.len() as u64 {
                            return Err(format!("preload: {applied} of {} applied", chunk.len()));
                        }
                        chunk.iter().for_each(|r| checker.acked(r));
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("preload worker panicked"))
    })
}

/// One completed request of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Op class (index into `workload::CLASSES`).
    pub class: usize,
    /// Latency in nanoseconds.
    pub ns: u64,
}

/// What one connection did in the measured phase.
#[derive(Default)]
pub struct ConnOutcome {
    /// Successful requests.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, were refused or answered wrongly.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Key plus document bytes of the acked PUTs.
    pub put_bytes: u64,
    /// When the connection's last request completed.
    pub finished: Option<Instant>,
}

impl ConnOutcome {
    /// Count a failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

/// Span names of the networked client calls, by op class.
const NET_SPANS: [&str; 4] = ["net.put", "net.get", "net.lookup", "net.range"];

/// Run `stream` closed-loop on connection `conn` until `deadline`. With
/// a tracer, every request gets a span around its client call.
pub fn drive(
    addr: &str,
    conn: u64,
    stream: &mut Stream,
    checker: &Checker,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("connect: {e}"));
            return out;
        }
    };
    let mut n = 0u64;
    while Instant::now() < deadline {
        let op = stream.next_op();
        let class = op.class();
        n += 1;
        out.attempted += 1;
        let (t0, t1, res) = call(&mut client, op, checker, &mut out.put_bytes);
        match res {
            Ok(()) => {
                if let Some(t) = tracer.as_deref_mut() {
                    t.record(conn << 40 | n, NET_SPANS[class], t0, t1);
                }
                let ns = (t1 - t0).as_nanos() as u64;
                out.samples.push(Sample { class, ns });
            }
            Err(e) => {
                out.fail(e);
                if client.is_desynced() {
                    break;
                }
            }
        }
    }
    out.finished = Some(Instant::now());
    out
}

/// Send one request and check its answer; returns the call's start and
/// end (the check is outside them).
fn call(
    client: &mut Client,
    op: Op,
    checker: &Checker,
    put_bytes: &mut u64,
) -> (Instant, Instant, Result<(), String>) {
    match op {
        Op::Put(r) => {
            checker.sent(&r);
            let t0 = Instant::now();
            let res = client.put(&r.key, &r.doc);
            let t1 = Instant::now();
            if res.is_ok() {
                checker.acked(&r);
                *put_bytes += (r.key.len() + r.doc.len()) as u64;
            }
            (t0, t1, res.map(drop).map_err(|e| format!("PUT: {e}")))
        }
        Op::Get(key) => {
            let t0 = Instant::now();
            let got = client.get(&key);
            let t1 = Instant::now();
            let res = got
                .map_err(|e| format!("GET: {e}"))
                .and_then(|doc| checker.check_get(&key, doc.as_deref()));
            (t0, t1, res)
        }
        Op::Lookup(user) => {
            let q = Query::User(user.clone());
            let min = checker.min_hits(&q);
            let t0 = Instant::now();
            let got = client.lookup("UserID", WireValue::Str(user), Some(K as u64));
            let t1 = Instant::now();
            let res = got
                .map_err(|e| format!("LOOKUP: {e}"))
                .and_then(|hits| checker.check_hits(&q, min, &hits));
            (t0, t1, res)
        }
        Op::Range(lo, hi) => {
            let q = Query::Time(lo, hi);
            let min = checker.min_hits(&q);
            let t0 = Instant::now();
            let (lo, hi) = (WireValue::Int(lo), WireValue::Int(hi));
            let got = client.range_lookup("CreationTime", lo, hi, Some(K as u64));
            let t1 = Instant::now();
            let res = got
                .map_err(|e| format!("RANGELOOKUP: {e}"))
                .and_then(|hits| checker.check_hits(&q, min, &hits));
            (t0, t1, res)
        }
    }
}

/// Round-trip times (ns) of `n` HELLO requests on a fresh connection:
/// transport and dispatch with no engine work.
pub fn hello_rtts(addr: &str, n: usize) -> Result<Vec<u64>, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    (0..n)
        .map(|i| {
            let t0 = Instant::now();
            c.hello(i as u64 + 1).map_err(|e| format!("HELLO: {e}"))?;
            Ok(t0.elapsed().as_nanos() as u64)
        })
        .collect()
}

/// Wait until the server's background flushes and compactions are idle:
/// a STATS with the integrity check, which quiesces background work
/// before checking. Returns the checker's violation count. It is not a
/// verdict: on a live database it also counts compaction inputs whose
/// deletion is still deferred (`OrphanFile`), so the run's verdict is
/// `ldbpp_tool check` after graceful shutdown.
pub fn settle(addr: &str) -> Result<u64, String> {
    let json = Client::connect(addr)
        .and_then(|mut c| c.stats(true))
        .map_err(|e| format!("STATS: {e}"))?;
    let root = Value::parse(&json).map_err(|e| format!("STATS json: {e}"))?;
    root.get("integrity")
        .and_then(|i| i.get("violations"))
        .and_then(Value::as_int)
        .map(|n| n as u64)
        .ok_or_else(|| format!("STATS without an integrity section: {json}"))
}

/// The server's STATS, flattened to `section.counter` numbers
/// (`merged_io.wal_syncs`, `server.shed_busy`, ...).
pub fn stats(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let json = Client::connect(addr)
        .and_then(|mut c| c.stats(false))
        .map_err(|e| format!("STATS: {e}"))?;
    let root = Value::parse(&json).map_err(|e| format!("STATS json: {e}"))?;
    let mut flat = BTreeMap::new();
    for section in ["merged_io", "server"] {
        if let Some(Value::Object(m)) = root.get(section) {
            for (k, v) in m {
                if let Some(x) = v.as_f64() {
                    flat.insert(format!("{section}.{k}"), x);
                }
            }
        }
    }
    Ok(flat)
}

/// Total size of the files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Run `ldbpp_tool check` on every engine directory under `work` (the
/// database and its stand-alone index tables).
pub fn tool_check(tool: &Path, work: &Path) -> Result<(), String> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(work)
        .map_err(|e| format!("{}: {e}", work.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("db"))
        })
        .collect();
    dirs.sort();
    for dir in dirs {
        let out = Command::new(tool)
            .arg("check")
            .arg(&dir)
            .output()
            .map_err(|e| format!("spawn {}: {e}", tool.display()))?;
        if !out.status.success() {
            return Err(format!(
                "ldbpp_tool check {}: {}",
                dir.display(),
                String::from_utf8_lossy(&out.stdout).trim()
            ));
        }
    }
    Ok(())
}

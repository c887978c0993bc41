//! `ldbpp_server` — serve a LevelDB++ database over TCP.
//!
//! ```text
//! ldbpp_server <db-dir> [--listen ADDR] [--shards N] [--index ATTR=KIND]...
//!              [--max-conns N] [--max-inflight N] [--no-wal-sync]
//! ldbpp_server --shutdown ADDR
//! ```
//!
//! Serves the wire protocol from `crates/proto` (PUT/GET/DEL/LOOKUP/
//! RANGELOOKUP/BATCH/STATS/SHUTDOWN) in front of a sharded `SecondaryDb`.
//! `KIND` is one of `none`, `embedded`, `eager`, `lazy`, `composite`.
//! The shard count defaults to `--shards`, then `LDBPP_SHARDS`, then 1;
//! reopening an existing directory must pass the same shard count and
//! index specs it was created with (the LAYOUT descriptor hard-errors on
//! mismatch). WAL fsync-before-ack is on by default so every acked write
//! survives `kill -9`; `--no-wal-sync` trades that for throughput.
//!
//! The process exits when a client sends `SHUTDOWN` (see
//! `ldbpp_server --shutdown`, which does exactly that); the drain acks
//! all in-flight requests before the shutdown ack.

use std::process::ExitCode;
use std::sync::Arc;

use ldbpp_core::indexes::IndexKind;
use ldbpp_core::secondary_db::{SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::env::DiskEnv;
use ldbpp_lsm::options::DbOptions;
use ldbpp_proto::{Client, Server, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: ldbpp_server <db-dir> [--listen ADDR] [--shards N] [--index ATTR=KIND]...\n\
         \x20                [--max-conns N] [--max-inflight N] [--no-wal-sync]\n\
         \x20      ldbpp_server --shutdown ADDR\n\
         KIND: none | embedded | eager | lazy | composite"
    );
    ExitCode::from(2)
}

fn parse_kind(s: &str) -> Option<IndexKind> {
    Some(match s {
        "none" => IndexKind::None,
        "embedded" => IndexKind::Embedded,
        "eager" => IndexKind::EagerStandalone,
        "lazy" => IndexKind::LazyStandalone,
        "composite" => IndexKind::CompositeStandalone,
        _ => return None,
    })
}

/// Cap glibc's malloc arenas at the core count. glibc otherwise gives
/// each connection thread its own arena (up to 8 per core); 16 KiB
/// request and response buffers freed in one arena are not reused by the
/// next connection's thread, so peak RSS grows with the number of
/// connections instead of with the work in flight.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_ARENA_MAX: c_int = -8;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let arenas = c_int::try_from(cores).unwrap_or(c_int::MAX);
    // SAFETY: `mallopt` is glibc's documented tunable setter. It takes
    // two plain integers, touches no caller memory, and serializes
    // itself against concurrent allocation; it is called once, before
    // this process spawns any thread.
    if unsafe { mallopt(M_ARENA_MAX, arenas) } != 1 {
        eprintln!("mallopt(M_ARENA_MAX, {arenas}) failed; keeping glibc's default arena limit");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas() {}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }

    // Client mode: ask a running server to drain and exit.
    if args[0] == "--shutdown" {
        let Some(addr) = args.get(1) else {
            return usage();
        };
        return match Client::connect(addr.as_str()).and_then(|mut c| c.shutdown()) {
            Ok(()) => {
                println!("server at {addr} shut down");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("shutdown {addr}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let dir = args[0].clone();
    let mut listen = "127.0.0.1:4700".to_string();
    let mut shards = SecondaryDbOptions::shards_from_env();
    let mut specs: Vec<(String, IndexKind)> = Vec::new();
    let mut cfg = ServerConfig::default();
    let mut wal_sync = true;

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                let Some(v) = args.get(i + 1) else {
                    return usage();
                };
                listen = v.clone();
                i += 2;
            }
            "--shards" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) else {
                    return usage();
                };
                if n == 0 {
                    return usage();
                }
                shards = n;
                i += 2;
            }
            "--index" => {
                let Some(spec) = args.get(i + 1) else {
                    return usage();
                };
                let Some((attr, kind)) = spec.split_once('=') else {
                    return usage();
                };
                let Some(kind) = parse_kind(kind) else {
                    return usage();
                };
                specs.push((attr.to_string(), kind));
                i += 2;
            }
            "--max-conns" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) else {
                    return usage();
                };
                cfg.max_conns = n.max(1);
                i += 2;
            }
            "--max-inflight" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) else {
                    return usage();
                };
                cfg.max_inflight = n;
                i += 2;
            }
            "--no-wal-sync" => {
                wal_sync = false;
                i += 1;
            }
            _ => return usage(),
        }
    }

    cap_malloc_arenas();
    let opts = SecondaryDbOptions {
        base: DbOptions {
            wal_sync,
            background_work: true,
            ..Default::default()
        },
        shards,
        ..Default::default()
    };
    let spec_refs: Vec<(&str, IndexKind)> = specs.iter().map(|(a, k)| (a.as_str(), *k)).collect();
    let db = match SecondaryDb::open(DiskEnv::new(), &dir, opts, &spec_refs) {
        Ok(db) => Arc::new(db),
        Err(e) => {
            eprintln!("open {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "serving {dir} ({} shard(s), {} index(es), wal_sync={wal_sync})",
        db.shard_count(),
        specs.len()
    );

    let handle = match Server::start(db, &listen, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("start server on {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Tests and scripts parse this exact line to learn the ephemeral port.
    println!("listening on {}", handle.local_addr());

    match handle.join() {
        Ok(()) => {
            println!("shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server: {e}");
            ExitCode::FAILURE
        }
    }
}

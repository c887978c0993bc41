//! The serving workloads and their deterministic operation streams.
//!
//! Every request the server sees comes from here, derived from the
//! workload seed: the preload records and one operation stream per
//! client connection. Records come from the tweet generator
//! (`ldbpp-workload`); keys are never overwritten, so each key has exactly
//! one document for the whole run and the answer checker can hold it.

use std::sync::Arc;

use ldbpp_workload::{SeedStats, TweetGenerator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Secondary-index results per query (`K` of LOOKUP and RANGELOOKUP).
pub const K: usize = 10;
/// Width of a RANGELOOKUP(CreationTime) window, in seconds.
pub const RANGE_WINDOW_S: i64 = 60;
/// One workload: server layout, preload and operation mix.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// `--shards` of the server.
    pub shards: usize,
    /// `--index ATTR=KIND` flags of the server.
    pub indexes: &'static [(&'static str, &'static str)],
    /// Records loaded before the measured phase.
    pub preload: usize,
    /// Target serialized document size in bytes.
    pub doc_bytes: usize,
    /// Operation shares: PUT, GET, LOOKUP, RANGELOOKUP (sum to 1). GETs
    /// read a preloaded key, uniformly.
    pub mix: [f64; 4],
    /// Records per preload BATCH request.
    pub batch: usize,
}

impl Spec {
    /// The named workload; `tiny` shrinks the preload for self-tests.
    pub fn named(name: &str, tiny: bool) -> Option<Spec> {
        let mut spec = match name {
            // Read-heavy over data 4x the two shards' memtables: reads go
            // through SSTable blocks, blooms, zone maps and scatter-gather
            // top-K merges, with no stand-alone index at all.
            "feed_read" => Spec {
                name: "feed_read",
                shards: 2,
                indexes: &[("UserID", "embedded"), ("CreationTime", "embedded")],
                preload: 64_000,
                doc_bytes: 550,
                mix: [0.20, 0.60, 0.10, 0.10],
                batch: 100,
            },
            // ~16 KiB records: the per-byte costs (JSON, frame codec,
            // compression, block I/O) dominate.
            "large_docs" => Spec {
                name: "large_docs",
                shards: 1,
                indexes: &[("UserID", "lazy")],
                preload: 1_100,
                doc_bytes: 16 << 10,
                mix: [0.30, 0.50, 0.20, 0.0],
                batch: 8,
            },
            _ => return None,
        };
        if tiny {
            spec.preload = (spec.preload / 100).max(20);
        }
        Some(spec)
    }

    /// The names `--workload` accepts.
    pub const NAMES: [&'static str; 2] = ["feed_read", "large_docs"];

    /// Records the user pool is sized for (preload plus a margin for the
    /// measured phase), so every stream draws users from the same pool.
    fn pool_records(&self) -> usize {
        self.preload * 2
    }

    fn stats(&self, start_time: i64) -> SeedStats {
        SeedStats {
            avg_tweet_bytes: self.doc_bytes,
            start_time,
            ..SeedStats::default()
        }
    }

    /// Server flags beyond the database directory and listen address.
    pub fn server_flags(&self) -> Vec<String> {
        let mut flags = vec!["--shards".to_string(), self.shards.to_string()];
        for (attr, kind) in self.indexes {
            flags.push("--index".into());
            flags.push(format!("{attr}={kind}"));
        }
        flags
    }
}

/// One generated record.
#[derive(Debug, Clone)]
pub struct Record {
    /// Primary key.
    pub key: Vec<u8>,
    /// `UserID` attribute.
    pub user: String,
    /// `CreationTime` attribute.
    pub time: i64,
    /// Canonical serialized JSON document (what a GET must return).
    pub doc: Arc<Vec<u8>>,
}

/// One client request.
#[derive(Debug, Clone)]
pub enum Op {
    /// Insert a fresh record.
    Put(Record),
    /// Read a key that is known to be acked.
    Get(Vec<u8>),
    /// `LOOKUP(UserID, user, K)`.
    Lookup(String),
    /// `RANGELOOKUP(CreationTime, lo, hi, K)`.
    Range(i64, i64),
}

/// Op class index: PUT, GET, LOOKUP, RANGELOOKUP.
pub const CLASSES: [&str; 4] = ["put", "get", "lookup", "range"];

impl Op {
    /// Index into [`CLASSES`].
    pub fn class(&self) -> usize {
        match self {
            Op::Put(_) => 0,
            Op::Get(_) => 1,
            Op::Lookup(_) => 2,
            Op::Range(..) => 3,
        }
    }
}

fn record(gen: &mut TweetGenerator, prefix: char, i: usize) -> Record {
    let mut tweet = gen.next_tweet();
    tweet.id = format!("{prefix}{i:09}");
    Record {
        key: tweet.id.clone().into_bytes(),
        doc: Arc::new(tweet.document().to_json().into_bytes()),
        user: tweet.user,
        time: tweet.creation_time,
    }
}

/// The preload records of a workload.
pub fn preload(spec: &Spec, seed: u64) -> Vec<Record> {
    let start = SeedStats::default().start_time;
    let mut gen = TweetGenerator::new(spec.stats(start), spec.pool_records(), seed);
    (0..spec.preload)
        .map(|i| record(&mut gen, 'p', i))
        .collect()
}

/// The operation stream of one client. Stream `i` writes keys with its
/// own prefix, so streams never write the same key.
pub struct Stream {
    spec: Spec,
    gen: TweetGenerator,
    users: TweetGenerator,
    rng: StdRng,
    prefix: char,
    puts: usize,
    preloaded: Arc<Vec<Record>>,
    time_span: (i64, i64),
}

impl Stream {
    /// Stream number `id` of the workload (0 and 1 are the networked
    /// connections, 2 the in-process replay).
    pub fn new(spec: &Spec, seed: u64, id: u64, preloaded: Arc<Vec<Record>>) -> Stream {
        let first = preloaded.first().map_or(0, |r| r.time);
        let last = preloaded.last().map_or(first, |r| r.time);
        let sub = seed ^ (id + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Stream {
            gen: TweetGenerator::new(spec.stats(last + 1), spec.pool_records(), sub),
            users: TweetGenerator::new(spec.stats(first), spec.pool_records(), sub ^ 0x05e5),
            rng: StdRng::seed_from_u64(sub ^ 0x0a11),
            prefix: (b'a' + id as u8) as char,
            puts: 0,
            spec: spec.clone(),
            preloaded,
            time_span: (first, last),
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let x: f64 = self.rng.random();
        let [put, get, lookup, _] = self.spec.mix;
        if x < put {
            self.puts += 1;
            Op::Put(record(&mut self.gen, self.prefix, self.puts))
        } else if x < put + get {
            let i = self.rng.random_range(0..self.preloaded.len());
            Op::Get(self.preloaded[i].key.clone())
        } else if x < put + get + lookup {
            Op::Lookup(TweetGenerator::user_id(self.users.sample_user_rank()))
        } else {
            let (first, last) = self.time_span;
            let lo = self
                .rng
                .random_range(first..=(last - RANGE_WINDOW_S + 1).max(first));
            Op::Range(lo, lo + RANGE_WINDOW_S - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_disjoint() {
        let spec = Spec::named("feed_read", true).unwrap();
        let pre = Arc::new(preload(&spec, 7));
        let ops = |id| {
            let mut s = Stream::new(&spec, 7, id, pre.clone());
            (0..200)
                .map(|_| format!("{:?}", s.next_op()))
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(0), ops(0));
        assert_ne!(ops(0), ops(1));
        assert!(ops(0).iter().any(|o| o.starts_with("Range")));
    }

    #[test]
    fn documents_are_canonical_json() {
        let spec = Spec::named("large_docs", true).unwrap();
        for r in preload(&spec, 3).iter().take(3) {
            let doc = ldbpp_core::doc::Document::parse(&r.doc).unwrap();
            assert_eq!(doc.to_bytes(), *r.doc, "GET answers are compared bytewise");
            assert!(r.doc.len() > 15 << 10);
        }
    }
}

//! The answer checker: every response is compared against what the
//! benchmark itself wrote.
//!
//! Keys are never overwritten, so the last acked document of a key is
//! the only one it ever had. A GET of an acked key must return exactly
//! its canonical bytes. A LOOKUP/RANGELOOKUP answer must hold at most K
//! hits, newest-first by `seq`, each a record the benchmark wrote (bytes
//! included) that matches the query; and it must hold at least
//! `min(K, n)` hits, where `n` counts the matching records whose PUT was
//! acked before the query was sent.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Mutex, RwLock};

use ldbpp_proto::Hit;

use crate::workload::{Record, K};

/// What a query asked for.
#[derive(Debug, Clone)]
pub enum Query {
    /// `LOOKUP(UserID, user, K)`.
    User(String),
    /// `RANGELOOKUP(CreationTime, lo, hi, K)`.
    Time(i64, i64),
}

impl Query {
    fn matches(&self, r: &Record) -> bool {
        match self {
            Query::User(u) => r.user == *u,
            Query::Time(lo, hi) => (*lo..=*hi).contains(&r.time),
        }
    }
}

#[derive(Default)]
struct Acked {
    keys: HashSet<Vec<u8>>,
    per_user: HashMap<String, usize>,
    per_second: BTreeMap<i64, usize>,
}

/// Shared by every client of a run.
#[derive(Default)]
pub struct Checker {
    written: RwLock<HashMap<Vec<u8>, Record>>,
    acked: Mutex<Acked>,
}

impl Checker {
    /// Note a record before its PUT is sent (a query may see it from then).
    pub fn sent(&self, r: &Record) {
        self.written
            .write()
            .expect("checker lock poisoned")
            .insert(r.key.clone(), r.clone());
    }

    /// Note that the PUT of `r` was acked.
    pub fn acked(&self, r: &Record) {
        let mut a = self.acked.lock().expect("checker lock poisoned");
        a.keys.insert(r.key.clone());
        *a.per_user.entry(r.user.clone()).or_default() += 1;
        *a.per_second.entry(r.time).or_default() += 1;
    }

    /// The fewest hits a query sent now may return.
    pub fn min_hits(&self, q: &Query) -> usize {
        let a = self.acked.lock().expect("checker lock poisoned");
        let n = match q {
            Query::User(u) => a.per_user.get(u).copied().unwrap_or(0),
            Query::Time(lo, hi) => a.per_second.range(lo..=hi).map(|(_, n)| n).sum(),
        };
        n.min(K)
    }

    /// Check a GET answer.
    pub fn check_get(&self, key: &[u8], got: Option<&[u8]>) -> Result<(), String> {
        let written = self.written.read().expect("checker lock poisoned");
        let want = written
            .get(key)
            .ok_or_else(|| format!("GET of a key never written: {}", show(key)))?;
        if !self
            .acked
            .lock()
            .expect("checker lock poisoned")
            .keys
            .contains(key)
        {
            return Err(format!("GET of an unacked key: {}", show(key)));
        }
        match got {
            None => Err(format!("GET {}: acked key missing", show(key))),
            Some(doc) if doc != want.doc.as_slice() => Err(format!(
                "GET {}: {} bytes differ from the {} acked bytes",
                show(key),
                doc.len(),
                want.doc.len()
            )),
            Some(_) => Ok(()),
        }
    }

    /// Check a LOOKUP/RANGELOOKUP answer against `q` and the lower bound
    /// taken with [`Checker::min_hits`] before the query was sent.
    pub fn check_hits(&self, q: &Query, min_hits: usize, hits: &[Hit]) -> Result<(), String> {
        if hits.len() > K {
            return Err(format!("{q:?}: {} hits exceed K={K}", hits.len()));
        }
        if hits.len() < min_hits {
            return Err(format!(
                "{q:?}: {} hits but {min_hits} matching records were acked",
                hits.len()
            ));
        }
        if hits.windows(2).any(|w| w[0].seq < w[1].seq) {
            return Err(format!("{q:?}: hits not newest-first by seq"));
        }
        let written = self.written.read().expect("checker lock poisoned");
        let mut seen = HashSet::new();
        for h in hits {
            let r = written
                .get(&h.key)
                .ok_or_else(|| format!("{q:?}: hit on a key never written: {}", show(&h.key)))?;
            if !q.matches(r) {
                return Err(format!("{q:?}: hit {} does not match", show(&h.key)));
            }
            if h.doc != *r.doc {
                return Err(format!("{q:?}: hit {} has wrong bytes", show(&h.key)));
            }
            if !seen.insert(&h.key) {
                return Err(format!("{q:?}: duplicate hit {}", show(&h.key)));
            }
        }
        Ok(())
    }
}

fn show(key: &[u8]) -> String {
    String::from_utf8_lossy(key).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{preload, Spec};

    fn loaded() -> (Checker, Vec<Record>) {
        let spec = Spec::named("feed_read", true).unwrap();
        let recs = preload(&spec, 11);
        let c = Checker::default();
        for r in &recs {
            c.sent(r);
            c.acked(r);
        }
        (c, recs)
    }

    fn hits_of(recs: &[&Record]) -> Vec<Hit> {
        recs.iter()
            .enumerate()
            .map(|(i, r)| Hit {
                key: r.key.clone(),
                seq: 1000 - i as u64,
                doc: r.doc.to_vec(),
            })
            .collect()
    }

    #[test]
    fn correct_answers_pass() {
        let (c, recs) = loaded();
        c.check_get(&recs[3].key, Some(&recs[3].doc)).unwrap();
        let q = Query::User(recs[0].user.clone());
        let mine: Vec<&Record> = recs.iter().rev().filter(|r| q.matches(r)).take(K).collect();
        c.check_hits(&q, c.min_hits(&q), &hits_of(&mine)).unwrap();
    }

    #[test]
    fn seeded_wrong_answers_are_caught() {
        let (c, recs) = loaded();
        let mut doc = recs[3].doc.to_vec();
        doc[5] ^= 1;
        assert!(
            c.check_get(&recs[3].key, Some(&doc)).is_err(),
            "flipped byte"
        );
        assert!(c.check_get(&recs[3].key, None).is_err(), "lost key");
        assert!(
            c.check_get(&recs[4].key, Some(&recs[3].doc)).is_err(),
            "wrong doc"
        );

        let q = Query::User(recs[0].user.clone());
        let mine: Vec<&Record> = recs.iter().rev().filter(|r| q.matches(r)).take(K).collect();
        let other = recs.iter().find(|r| !q.matches(r)).unwrap();
        let min = c.min_hits(&q);
        assert!(min >= 1);
        let mut wrong = hits_of(&mine);
        wrong[0] = hits_of(&[other])[0].clone();
        assert!(
            c.check_hits(&q, min, &wrong).is_err(),
            "hit of another user"
        );
        let mut reordered = hits_of(&mine);
        reordered.reverse();
        if reordered.len() > 1 {
            assert!(c.check_hits(&q, min, &reordered).is_err(), "oldest first");
        }
        assert!(c.check_hits(&q, min, &[]).is_err(), "acked records missing");

        let t = recs[0].time;
        let window = Query::Time(t, t);
        let far = recs.iter().find(|r| r.time != t).unwrap();
        let bad = hits_of(&[far]);
        assert!(
            c.check_hits(&window, 0, &bad).is_err(),
            "hit outside window"
        );
    }
}

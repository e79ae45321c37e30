//! Correctness bookkeeping for key-value traffic.
//!
//! Every `Put` carries a unique put id inside its 128-byte value, so a
//! value read back names the write that produced it. A value is stale when
//! some other acknowledged write to the key began after the named write
//! was acknowledged: the named write was then overwritten, in real time,
//! before the read began.

use bytes::Bytes;

/// Length of every value written.
pub const VALUE_BYTES: usize = 128;

/// Not acknowledged (yet, or ever).
const NEVER: u64 = u64::MAX;

/// The 128-byte value of put `id`.
#[must_use]
pub fn value_of(id: u64) -> String {
    let mut v = format!("p{id:016x}:");
    let fill = b'a' + (id % 26) as u8;
    while v.len() < VALUE_BYTES {
        v.push(fill as char);
    }
    v
}

/// The put id a value names, if it is one of ours.
#[must_use]
pub fn put_of(value: &[u8]) -> Option<u64> {
    if value.len() != VALUE_BYTES || value[0] != b'p' || value[17] != b':' {
        return None;
    }
    let hex = std::str::from_utf8(&value[1..17]).ok()?;
    u64::from_str_radix(hex, 16).ok()
}

#[derive(Clone, Copy, Debug)]
struct PutRec {
    key: u32,
    sent: u64,
    acked: u64,
}

/// What the checks found wrong (empty when correct).
pub type Problems = Vec<String>;

/// Put and get history of one cluster's lifetime.
#[derive(Debug)]
pub struct History {
    puts: Vec<PutRec>,
    /// Per key: latest start of an acknowledged write.
    floor: Vec<u64>,
    /// Reads checked so far.
    reads: usize,
    problems: Problems,
}

impl History {
    /// History over keys `0..n_keys`.
    #[must_use]
    pub fn new(n_keys: usize) -> History {
        History {
            puts: Vec::new(),
            floor: vec![0; n_keys],
            reads: 0,
            problems: Vec::new(),
        }
    }

    /// Allocate the id of a new put to `key`.
    pub fn new_put(&mut self, key: u32) -> u64 {
        self.puts.push(PutRec {
            key,
            sent: NEVER,
            acked: NEVER,
        });
        (self.puts.len() - 1) as u64
    }

    /// Put `id` was first transmitted at `t`.
    pub fn put_sent(&mut self, id: u64, t: u64) {
        self.puts[id as usize].sent = t;
    }

    /// Put `id` was acknowledged at `t`.
    pub fn put_acked(&mut self, id: u64, t: u64) {
        let p = &mut self.puts[id as usize];
        p.acked = t;
        let f = &mut self.floor[p.key as usize];
        *f = (*f).max(p.sent);
    }

    /// The freshness floor of `key` right now (pass it back with the
    /// read's reply).
    #[must_use]
    pub fn floor(&self, key: u32) -> u64 {
        self.floor[key as usize]
    }

    /// A read of `key` sent when its floor was `floor` returned `payload`.
    /// Checked at once: a write not acknowledged by now will be
    /// acknowledged after the floor was taken, so it cannot be stale, and
    /// a write acknowledged by now has its final acknowledgement time.
    pub fn get_returned(&mut self, key: u32, floor: u64, payload: &Bytes) {
        let got = if payload.as_ref() == b"\0NOT_FOUND" {
            None
        } else if let Some(id) = put_of(payload) {
            Some(id)
        } else {
            self.problems
                .push(format!("read of key {key} returned a foreign value"));
            return;
        };
        self.reads += 1;
        if let Err(e) = self.fresh(key, floor, got) {
            self.problems.push(e);
        }
    }

    /// Whether put `got` (or absence) is a value `key` may hold given the
    /// floor.
    fn fresh(&self, key: u32, floor: u64, got: Option<u64>) -> Result<(), String> {
        match got {
            None if floor == 0 => Ok(()),
            None => Err(format!("key {key}: acknowledged write lost (not found)")),
            Some(id) => {
                let Some(p) = self.puts.get(id as usize) else {
                    return Err(format!("key {key}: value names unknown put {id}"));
                };
                if p.key != key {
                    Err(format!(
                        "key {key}: value of put {id} belongs to key {}",
                        p.key
                    ))
                } else if p.acked < floor {
                    Err(format!(
                        "key {key}: stale value of put {id}, overwritten before the read"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Reads checked: none may return a value older than a write
    /// acknowledged before the read was sent.
    #[must_use]
    pub fn reads_checked(&self) -> usize {
        self.reads
    }

    /// Check a final read-back of `key` (after the traffic stopped):
    /// it must return the last acknowledged write or a later unacknowledged
    /// one.
    pub fn check_final(&mut self, key: u32, payload: &Bytes) {
        let got = if payload.as_ref() == b"\0NOT_FOUND" {
            None
        } else if let Some(id) = put_of(payload) {
            Some(id)
        } else {
            self.problems
                .push(format!("read-back of key {key} returned a foreign value"));
            return;
        };
        let floor = self.floor[key as usize];
        if let Err(e) = self.fresh(key, floor, got) {
            self.problems.push(e);
        }
    }

    /// Keys that saw at least one acknowledged write.
    #[must_use]
    pub fn written_keys(&self) -> Vec<u32> {
        let mut written = vec![false; self.floor.len()];
        for p in self.puts.iter().filter(|p| p.acked != NEVER) {
            written[p.key as usize] = true;
        }
        (0..written.len() as u32)
            .filter(|&k| written[k as usize])
            .collect()
    }

    /// Problems found so far.
    #[must_use]
    pub fn problems(&self) -> &Problems {
        &self.problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_name_their_put() {
        let v = value_of(0xabc);
        assert_eq!(v.len(), VALUE_BYTES);
        assert_eq!(put_of(v.as_bytes()), Some(0xabc));
        assert_eq!(put_of(b"hello"), None);
    }

    #[test]
    fn stale_reads_and_lost_writes_are_caught() {
        let mut h = History::new(2);
        let a = h.new_put(0);
        h.put_sent(a, 10);
        h.put_acked(a, 20);
        let b = h.new_put(0);
        h.put_sent(b, 30);
        h.put_acked(b, 40);
        // Sent after b was acked: must not see a.
        let floor = h.floor(0);
        h.get_returned(0, floor, &Bytes::from(value_of(a)));
        h.get_returned(0, floor, &Bytes::from(value_of(b)));
        assert_eq!(h.reads_checked(), 2);
        assert_eq!(h.problems().len(), 1, "{:?}", h.problems());
        // A write concurrent with b (sent before b was acked, never acked)
        // may legitimately be the final value.
        let c = h.new_put(0);
        h.put_sent(c, 35);
        h.check_final(0, &Bytes::from(value_of(c)));
        assert_eq!(h.problems().len(), 1);
        h.check_final(0, &Bytes::from_static(b"\0NOT_FOUND"));
        assert_eq!(h.problems().len(), 2);
        // Key 1 was never written: absence is fine.
        h.check_final(1, &Bytes::from_static(b"\0NOT_FOUND"));
        assert_eq!(h.problems().len(), 2);
        assert_eq!(h.written_keys(), vec![0]);
    }
}

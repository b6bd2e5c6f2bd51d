//! Stored-state audits run after every simulated run.
//!
//! Plain LZ4 workloads must pass `Cluster::verify_stored` with no bad
//! blocks, and every stored block must expand to one of the pool's
//! payloads. Sealed workloads store dedup+LZ4+XTS containers that
//! `verify_stored` cannot read, so each container is unsealed under the
//! segment tweak of the pool block it claims to hold and compared with that
//! payload byte for byte. Candidate blocks come from an index of pool
//! payloads by the fingerprint of their first content-defined chunk, which
//! every container records in its clear-text header, so the audit is
//! linear in the number of stored blocks.

use crate::output::Checks;
use crate::sim::Run;
use crate::workloads::Spec;
use datakit::{fingerprint, Chunker, Fp};
use smartds::cluster::Cluster;
use std::collections::{BTreeMap, BTreeSet};

/// Byte offset of the first chunk reference's fingerprint in a sealed
/// container: a u16 reference count, then per reference a one-byte
/// new/duplicate flag and a u16 length before the two fingerprint words.
const FIRST_FP_AT: usize = 2 + 1 + 2;

/// The audit state for one workload's pool.
pub struct Auditor {
    pool: smartds::Workload,
    /// Sealed workloads: first-chunk fingerprint → pool blocks.
    first_chunk: BTreeMap<Fp, Vec<usize>>,
    /// Plain workloads: fingerprints of every pool payload.
    payloads: BTreeSet<Fp>,
    sealed: bool,
}

impl Auditor {
    /// Indexes `pool`, the block pool of workload `spec`.
    pub fn new(spec: &Spec, pool: smartds::Workload) -> Auditor {
        let chunker = spec
            .cfg
            .services
            .as_ref()
            .map(|s| Chunker::new(s.chunk, s.chunk_seed));
        let blocks = pool.pool().len();
        let mut first_chunk: BTreeMap<Fp, Vec<usize>> = BTreeMap::new();
        let mut payloads = BTreeSet::new();
        let sealed = chunker.is_some();
        match chunker {
            Some(mut chunker) => {
                for i in 0..blocks {
                    let payload = pool.payload(i);
                    let first = chunker.cut_all(payload).first().copied().unwrap_or(0);
                    first_chunk
                        .entry(fingerprint(&payload[..first]))
                        .or_default()
                        .push(i);
                }
            }
            None => {
                for i in 0..blocks {
                    payloads.insert(fingerprint(pool.payload(i)));
                }
            }
        }
        Auditor {
            pool,
            first_chunk,
            payloads,
            sealed,
        }
    }

    /// The pool the auditor checks against.
    pub fn pool(&self) -> &smartds::Workload {
        &self.pool
    }

    /// Audits `run`'s stored state as one check named `what`.
    pub fn record(&self, checks: &mut Checks, run: &Run, what: &str) {
        let verdict = self.check(&run.cluster);
        checks.record(verdict.is_ok(), || {
            format!(
                "{what}: stored-state audit: {}",
                verdict.clone().unwrap_err()
            )
        });
    }

    /// Audits every block held by a live server of `cl`; returns how many
    /// were verified, or the first failure.
    fn check(&self, cl: &Cluster) -> Result<usize, String> {
        if !self.sealed {
            let (ok, bad) = cl.verify_stored();
            if bad > 0 || ok == 0 {
                return Err(format!("verify_stored: {ok} good, {bad} bad blocks"));
            }
        }
        // Plain blocks stored as the same bytes expand to the same payload,
        // so each distinct stored form is expanded and looked up once.
        let mut seen: BTreeMap<(bool, u32), BTreeSet<Vec<u8>>> = BTreeMap::new();
        let mut verified = 0;
        for srv in cl.servers.iter().filter(|s| s.is_alive()) {
            for (_, chunk) in srv.chunks() {
                for (block, stored) in chunk.snapshot().iter() {
                    let form = (stored.compressed, stored.orig_len);
                    let data: &[u8] = &stored.data;
                    if !self.sealed && seen.get(&form).is_some_and(|s| s.contains(data)) {
                        verified += 1;
                        continue;
                    }
                    let bytes = stored
                        .expand()
                        .map_err(|e| format!("server {} block {block}: {e:?}", srv.id().0))?;
                    let ok = if self.sealed {
                        self.unseals_to_pool(cl, &bytes)
                    } else {
                        self.payloads.contains(&fingerprint(&bytes))
                    };
                    if !ok {
                        return Err(format!(
                            "server {} block {block} holds no pool payload",
                            srv.id().0
                        ));
                    }
                    if !self.sealed {
                        seen.entry(form).or_default().insert(data.to_vec());
                    }
                    verified += 1;
                }
            }
        }
        if verified == 0 {
            return Err("no stored blocks".into());
        }
        Ok(verified)
    }

    fn unseals_to_pool(&self, cl: &Cluster, container: &[u8]) -> bool {
        let Some(services) = cl.services() else {
            return false;
        };
        let word = |at: usize| {
            container
                .get(at..at + 8)
                .and_then(|b| b.try_into().ok())
                .map(u64::from_le_bytes)
        };
        let (Some(a), Some(b)) = (word(FIRST_FP_AT), word(FIRST_FP_AT + 8)) else {
            return false;
        };
        let Some(candidates) = self.first_chunk.get(&(a, b)) else {
            return false;
        };
        candidates
            .iter()
            .any(|&i| services.unseal(i as u64, container).as_deref() == Some(self.pool.payload(i)))
    }
}

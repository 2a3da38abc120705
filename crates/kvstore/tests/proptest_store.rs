//! Property tests: the sharded KV store behaves like a BTreeMap reference
//! model under arbitrary op sequences, including prefix scans, sub-value
//! writes and conditional multi-key commits.

use std::collections::BTreeMap;

use dpc_kvstore::{Check, KvStore, Write};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Get(Vec<u8>),
    Delete(Vec<u8>),
    Scan(Vec<u8>),
    WriteSub(Vec<u8>, usize, Vec<u8>),
    ReadSub(Vec<u8>, usize, usize),
    ReadSubs(Vec<(Vec<u8>, usize, usize)>),
    WriteSubs(Vec<(Vec<u8>, usize, Vec<u8>)>),
    PutIfAbsent(Vec<u8>, Vec<u8>),
    /// Checks `(key, Some(value))` = holds it, `(key, None)` = absent;
    /// writes `(key, Some(value))` = put, `(key, None)` = delete.
    Commit(
        Vec<(Vec<u8>, Option<Vec<u8>>)>,
        Vec<(Vec<u8>, Option<Vec<u8>>)>,
    ),
}

fn arb_value() -> impl Strategy<Value = Vec<u8>> {
    // Short and from a small alphabet, so a value check holds often.
    proptest::collection::vec(0u8..2, 0..3)
}

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet so keys collide and prefixes overlap.
    proptest::collection::vec(0u8..4, 1..5)
}

/// A key with a value, or with `None`.
fn arb_maybe_value() -> impl Strategy<Value = (Vec<u8>, Option<Vec<u8>>)> {
    (arb_key(), any::<bool>(), arb_value()).prop_map(|(k, some, v)| (k, some.then_some(v)))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), proptest::collection::vec(any::<u8>(), 0..32)).prop_map(|(k, v)| Op::Put(k, v)),
        arb_key().prop_map(Op::Get),
        arb_key().prop_map(Op::Delete),
        proptest::collection::vec(0u8..4, 0..3).prop_map(Op::Scan),
        (
            arb_key(),
            0usize..64,
            proptest::collection::vec(any::<u8>(), 1..32)
        )
            .prop_map(|(k, o, d)| Op::WriteSub(k, o, d)),
        (arb_key(), 0usize..80, 1usize..32).prop_map(|(k, o, l)| Op::ReadSub(k, o, l)),
        proptest::collection::vec((arb_key(), 0usize..80, 1usize..32), 0..6).prop_map(Op::ReadSubs),
        proptest::collection::vec(
            (
                arb_key(),
                0usize..64,
                proptest::collection::vec(any::<u8>(), 1..32)
            ),
            0..6
        )
        .prop_map(Op::WriteSubs),
        (arb_key(), arb_value()).prop_map(|(k, v)| Op::PutIfAbsent(k, v)),
        (
            proptest::collection::vec(arb_maybe_value(), 0..3),
            proptest::collection::vec(arb_maybe_value(), 0..5),
        )
            .prop_map(|(checks, writes)| Op::Commit(checks, writes)),
    ]
}

/// What one `write_sub` does to the model's value under `k`.
fn write_model(model: &mut BTreeMap<Vec<u8>, Vec<u8>>, k: Vec<u8>, off: usize, data: &[u8]) {
    let v = model.entry(k).or_default();
    if v.len() < off + data.len() {
        v.resize(off + data.len(), 0);
    }
    v[off..off + data.len()].copy_from_slice(data);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matches_btreemap_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let kv = KvStore::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    kv.put(&k, &v);
                    model.insert(k, v);
                }
                Op::Get(k) => {
                    prop_assert_eq!(kv.get(&k), model.get(&k).cloned());
                }
                Op::Delete(k) => {
                    prop_assert_eq!(kv.delete(&k), model.remove(&k).is_some());
                }
                Op::Scan(prefix) => {
                    let got = kv.scan_prefix(&prefix);
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(prefix.clone()..)
                        .take_while(|(k, _)| k.starts_with(&prefix))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::WriteSub(k, off, data) => {
                    kv.write_sub(&k, off, &data);
                    write_model(&mut model, k, off, &data);
                }
                Op::WriteSubs(writes) => {
                    // Each key ends as per-key `write_sub`s in the same
                    // order leave it; the whole set is one request.
                    let before = kv.stats();
                    let ranges = writes.iter().map(|(k, off, d)| (k, *off, d.as_slice()));
                    prop_assert_eq!(kv.write_subs(ranges), writes.len());
                    let after = kv.stats();
                    prop_assert_eq!(after.sub_writes - before.sub_writes, u64::from(!writes.is_empty()));
                    prop_assert_eq!(after.sub_write_keys - before.sub_write_keys, writes.len() as u64);
                    for (k, off, data) in &writes {
                        write_model(&mut model, k.clone(), *off, data);
                    }
                    for (k, _, _) in &writes {
                        prop_assert_eq!(kv.get(k), model.get(k).cloned());
                    }
                }
                Op::PutIfAbsent(k, v) => {
                    let free = !model.contains_key(&k);
                    prop_assert_eq!(kv.commit(&[Check::Absent(&k)], &[Write::Put(&k, &v)]), free);
                    if free {
                        model.insert(k, v);
                    }
                }
                Op::Commit(checks, writes) => {
                    // All the writes in order when every check holds on the
                    // model, none otherwise; one request either way.
                    let holds = checks.iter().all(|(k, v)| model.get(k) == v.as_ref());
                    let checks: Vec<Check> = checks
                        .iter()
                        .map(|(k, v)| match v {
                            Some(v) => Check::Holds(k, v),
                            None => Check::Absent(k),
                        })
                        .collect();
                    let kv_writes: Vec<Write> = writes
                        .iter()
                        .map(|(k, v)| match v {
                            Some(v) => Write::Put(k, v),
                            None => Write::Delete(k),
                        })
                        .collect();
                    let before = kv.stats();
                    prop_assert_eq!(kv.commit(&checks, &kv_writes), holds);
                    let after = kv.stats();
                    let deletes_only = writes.iter().all(|(_, v)| v.is_none());
                    prop_assert_eq!(after.puts - before.puts, u64::from(!deletes_only));
                    prop_assert_eq!(after.deletes - before.deletes, u64::from(deletes_only));
                    let written = if holds { writes.len() as u64 } else { 0 };
                    prop_assert_eq!(after.commit_keys - before.commit_keys, written);
                    if holds {
                        for (k, v) in writes {
                            match v {
                                Some(v) => model.insert(k, v),
                                None => model.remove(&k),
                            };
                        }
                    }
                }
                Op::ReadSub(k, off, len) => {
                    let mut got = vec![0xAA; len];
                    let present = kv.read_sub(&k, off, &mut got);
                    match model.get(&k) {
                        None => {
                            prop_assert!(!present);
                            prop_assert!(got.iter().all(|&b| b == 0));
                        }
                        Some(v) => {
                            prop_assert!(present);
                            let want: Vec<u8> = (0..len)
                                .map(|i| v.get(off + i).copied().unwrap_or(0))
                                .collect();
                            prop_assert_eq!(got, want);
                        }
                    }
                }
                Op::ReadSubs(ranges) => {
                    // Each key reads what `read_sub` reads, absent keys as
                    // zeros; the whole set is one request.
                    let mut bufs: Vec<Vec<u8>> = ranges.iter().map(|r| vec![0xAA; r.2]).collect();
                    let before = kv.stats();
                    let reads = ranges.iter().zip(bufs.iter_mut()).map(|((k, off, _), b)| (k, *off, b.as_mut_slice()));
                    let found = ranges.iter().filter(|(k, _, _)| model.contains_key(k)).count();
                    prop_assert_eq!(kv.read_subs(reads), found);
                    let after = kv.stats();
                    prop_assert_eq!(after.sub_reads - before.sub_reads, u64::from(!ranges.is_empty()));
                    prop_assert_eq!(after.sub_read_keys - before.sub_read_keys, ranges.len() as u64);
                    for ((k, off, len), got) in ranges.iter().zip(&bufs) {
                        let v = model.get(k).map(Vec::as_slice).unwrap_or_default();
                        let want: Vec<u8> = (0..*len).map(|i| v.get(off + i).copied().unwrap_or(0)).collect();
                        prop_assert_eq!(got, &want);
                    }
                }
            }
            prop_assert_eq!(kv.len(), model.len());
        }
    }
}

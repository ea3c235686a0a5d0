//! Property tests for the VFS content model and namespace.

use copra_simtime::Clock;
use copra_vfs::{Content, FsError, Segment, Vfs};
use proptest::prelude::*;

/// Strategy: a small content built from a mix of literal and synthetic
/// segments (total < 64 KiB so materialization stays cheap).
fn content_strategy() -> impl Strategy<Value = Content> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..512).prop_map(Segment::literal),
            (0u64..16, 0u64..4096, 0u64..512)
                .prop_map(|(seed, off, len)| Segment::synthetic(seed, off, len)),
        ],
        0..8,
    )
    .prop_map(|segs| {
        let mut c = Content::empty();
        for s in segs {
            c.push(s);
        }
        c
    })
}

proptest! {
    /// Chunked copy (arbitrary chunk size) preserves logical bytes,
    /// eq_content and fingerprint — the property every archive data path
    /// relies on.
    #[test]
    fn chunked_copy_preserves_content(c in content_strategy(), chunk in 1u64..1000) {
        let mut rebuilt = Content::empty();
        let mut off = 0;
        while off < c.len() {
            let take = chunk.min(c.len() - off);
            rebuilt.extend(c.slice(off, take));
            off += take;
        }
        prop_assert_eq!(rebuilt.len(), c.len());
        prop_assert!(rebuilt.eq_content(&c));
        prop_assert_eq!(rebuilt.fingerprint(), c.fingerprint());
        prop_assert_eq!(rebuilt.materialize(), c.materialize());
    }

    /// slice agrees with materialized byte slicing for arbitrary ranges.
    #[test]
    fn slice_matches_bytes(c in content_strategy(), a in 0u64..70_000, b in 0u64..70_000) {
        let len = c.len();
        let (start, end) = if a <= b { (a, b) } else { (b, a) };
        let start = start.min(len);
        let end = end.min(len);
        let s = c.slice(start, end - start);
        let bytes = c.materialize();
        prop_assert_eq!(&s.materialize()[..], &bytes[start as usize..end as usize]);
    }

    /// write_at agrees with the equivalent byte-level splice.
    #[test]
    fn write_at_matches_bytes(base in content_strategy(), patch in content_strategy(), off in 0u64..5000) {
        let mut expected = base.materialize().to_vec();
        let patch_bytes = patch.materialize();
        let off = off.min(base.len() + 128); // allow some past-EOF extension
        if off as usize > expected.len() {
            expected.resize(off as usize, 0);
        }
        let end = off as usize + patch_bytes.len();
        if end > expected.len() {
            expected.resize(end, 0);
        }
        expected[off as usize..end].copy_from_slice(&patch_bytes);

        let mut got = base.clone();
        got.write_at(off, patch);
        prop_assert_eq!(&got.materialize()[..], &expected[..]);
    }

    /// eq_content is an equivalence on logical bytes: it agrees with
    /// materialized equality for every generated pair.
    #[test]
    fn eq_content_agrees_with_bytes(a in content_strategy(), b in content_strategy()) {
        let eq = a.eq_content(&b);
        let byte_eq = a.materialize() == b.materialize();
        prop_assert_eq!(eq, byte_eq);
    }

    /// Files written through the VFS read back identically under any
    /// sequence of create/write/truncate on a single file.
    #[test]
    fn vfs_single_file_model(ops in prop::collection::vec(
        prop_oneof![
            (0u64..2000, content_strategy()).prop_map(|(off, c)| (0u8, off, c)),
            (0u64..3000).prop_map(|n| (1u8, n, Content::empty())),
        ], 1..12))
    {
        let v = Vfs::new("p", Clock::new());
        let ino = v.create("/f", 0, 0, Content::empty()).unwrap();
        let mut model: Vec<u8> = Vec::new();
        for (kind, arg, c) in ops {
            match kind {
                0 => {
                    let bytes = c.materialize();
                    let off = arg.min(model.len() as u64 + 64);
                    if off as usize > model.len() {
                        model.resize(off as usize, 0);
                    }
                    let end = off as usize + bytes.len();
                    if end > model.len() {
                        model.resize(end, 0);
                    }
                    model[off as usize..end].copy_from_slice(&bytes);
                    v.write_at(ino, off, c).unwrap();
                }
                _ => {
                    let n = arg;
                    model.resize(n as usize, 0);
                    v.truncate(ino, n).unwrap();
                }
            }
            let got = v.peek_content(ino).unwrap();
            prop_assert_eq!(got.len() as usize, model.len());
            prop_assert_eq!(&got.materialize()[..], &model[..]);
        }
    }

    /// Namespace model: a random tree of mkdir/create is fully visible via
    /// walk, and every walked path resolves to its own attr.
    #[test]
    fn walk_reflects_namespace(names in prop::collection::vec("[a-d]{1,3}", 1..20)) {
        let v = Vfs::new("ns", Clock::new());
        let mut expected = std::collections::BTreeSet::new();
        expected.insert("/".to_string());
        let mut cur = "/".to_string();
        for (i, n) in names.iter().enumerate() {
            if i % 3 == 2 {
                // descend
                let p = copra_vfs::join(&cur, n);
                match v.mkdir(&p) {
                    Ok(_) => { expected.insert(p.clone()); cur = p; }
                    Err(FsError::AlreadyExists(_)) => { cur = p; }
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
            } else {
                let p = copra_vfs::join(&cur, &format!("f{i}_{n}"));
                v.create(&p, 0, 0, Content::empty()).unwrap();
                expected.insert(p);
            }
        }
        let walked: std::collections::BTreeSet<_> =
            v.walk("/").unwrap().into_iter().map(|e| e.path).collect();
        prop_assert_eq!(walked, expected);
    }
}

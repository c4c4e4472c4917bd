//! Crash-safe content-addressed artifact store.
//!
//! The service caches flow artifacts at two granularities — `cluster`ings
//! and synthesized `netlist`s — keyed by the canonical structural hash of
//! the request design plus strategy and synthesis-config fingerprints.
//! A third kind, width `analysis` results, is no longer written or looked
//! up; it stays a known kind so stores written with it still open and
//! recover intact. The store is a plain directory:
//!
//! ```text
//! <root>/manifest.log            append-only journal, one line per put
//! <root>/objects/<kind>/<key>.bin  "DPS1" + 16-byte checksum + payload
//! <root>/quarantine/             corrupt entries, moved aside for autopsy
//! ```
//!
//! **Writes are atomic**: payloads land in a `.tmp` sibling, are fsynced,
//! and only then renamed over the final name; the manifest line is
//! appended (and fsynced) after the rename. A crash at any instant leaves
//! either no trace, a stale `.tmp` (removed on the next open), or a
//! renamed object missing its manifest line (adopted on the next open —
//! the object header carries its own checksum, so adoption can verify it
//! without the journal).
//!
//! **Reads are paranoid**: a missing file, wrong magic, short header,
//! truncated payload or checksum mismatch is *never* an error and *never*
//! a wrong answer — the entry is moved to `quarantine/`, a diagnostic is
//! recorded, and the lookup reports a miss so the caller recomputes.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Object-file magic: `DPS1` (DataPath Store, version 1).
const MAGIC: &[u8; 4] = b"DPS1";

/// Bytes of header before the payload: magic + 128-bit checksum.
const HEADER_LEN: usize = 4 + 16;

/// The granularities the service caches, each its own object directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArtifactKind {
    /// A width-optimized design (canonical encoding of the post-analysis
    /// graph). The service no longer reads or writes this kind; it is
    /// kept so that stores holding such entries still recover them.
    Analysis,
    /// A clustering plus the graph it partitions.
    Cluster,
    /// A folded and swept gate-level netlist.
    Netlist,
}

impl ArtifactKind {
    /// Every kind, in directory-listing order.
    pub const ALL: [ArtifactKind; 3] =
        [ArtifactKind::Analysis, ArtifactKind::Cluster, ArtifactKind::Netlist];

    /// The directory name under `objects/`.
    pub fn dir(self) -> &'static str {
        match self {
            ArtifactKind::Analysis => "analysis",
            ArtifactKind::Cluster => "cluster",
            ArtifactKind::Netlist => "netlist",
        }
    }

    fn from_dir(name: &str) -> Option<ArtifactKind> {
        ArtifactKind::ALL.into_iter().find(|k| k.dir() == name)
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.dir())
    }
}

/// Lookup/write counters, reported in the service's stats block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that returned a verified payload.
    pub hits: u64,
    /// Lookups that found nothing (or quarantined what they found).
    pub misses: u64,
    /// Objects written.
    pub writes: u64,
    /// Entries moved to `quarantine/` (corrupt or audit-failed).
    pub quarantined: u64,
}

/// The content-addressed artifact store. One instance owns the directory;
/// share it behind a mutex for concurrent use.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    /// Verified entries: (kind, key) -> payload checksum.
    index: BTreeMap<(ArtifactKind, String), u128>,
    stats: StoreStats,
    /// Human-readable notes about recoveries and quarantines, in order.
    diagnostics: Vec<String>,
}

impl Store {
    /// Opens (creating if needed) the store at `root`, running crash
    /// recovery: stale `.tmp` files are removed, objects present but
    /// missing from the journal are verified and adopted, journal entries
    /// whose objects are missing or corrupt are quarantined, and a torn
    /// trailing journal line is dropped. The journal is then rewritten
    /// compacted.
    ///
    /// # Errors
    ///
    /// Only on environmental I/O failures (permissions, disk full) —
    /// never on corrupt store *content*, which is quarantined instead.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Store> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(root.join("quarantine"))?;
        for kind in ArtifactKind::ALL {
            fs::create_dir_all(root.join("objects").join(kind.dir()))?;
        }
        let mut store = Store {
            root,
            index: BTreeMap::new(),
            stats: StoreStats::default(),
            diagnostics: Vec::new(),
        };
        store.recover()?;
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of verified entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no verified entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether a verified entry exists (no I/O, no stats update).
    pub fn contains(&self, kind: ArtifactKind, key: &str) -> bool {
        self.index.contains_key(&(kind, key.to_string()))
    }

    /// Lookup/write counters so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Recovery and quarantine notes, in the order they were recorded.
    pub fn diagnostics(&self) -> &[String] {
        &self.diagnostics
    }

    /// Stores `payload` under `(kind, key)` atomically. Returns `false`
    /// (writing nothing) when a verified entry already exists — the store
    /// is content-addressed, so an existing key is the same content.
    ///
    /// # Errors
    ///
    /// On I/O failure or a key that is not filesystem-safe
    /// (`[A-Za-z0-9._-]+`).
    pub fn put(&mut self, kind: ArtifactKind, key: &str, payload: &[u8]) -> io::Result<bool> {
        check_key(key)?;
        if self.contains(kind, key) {
            return Ok(false);
        }
        let checksum = fnv128(payload);
        let final_path = self.object_path(kind, key);
        let tmp_path = final_path.with_extension("bin.tmp");
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(MAGIC)?;
            f.write_all(&checksum.to_be_bytes())?;
            f.write_all(payload)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        sync_dir(final_path.parent());
        self.append_manifest(kind, key, payload.len(), checksum)?;
        self.index.insert((kind, key.to_string()), checksum);
        self.stats.writes += 1;
        Ok(true)
    }

    /// Fetches and verifies the payload under `(kind, key)`. Any defect —
    /// unknown key, missing file, bad magic, truncation, checksum
    /// mismatch — is a **miss**: corrupt files are moved to `quarantine/`
    /// with a diagnostic, and the caller recomputes. Never an error,
    /// never a wrong payload.
    pub fn get(&mut self, kind: ArtifactKind, key: &str) -> Option<Vec<u8>> {
        let entry = (kind, key.to_string());
        let Some(&checksum) = self.index.get(&entry) else {
            self.stats.misses += 1;
            return None;
        };
        match self.read_verified(kind, key, Some(checksum)) {
            Ok(payload) => {
                self.stats.hits += 1;
                Some(payload)
            }
            Err(defect) => {
                self.index.remove(&entry);
                self.quarantine_file(kind, key, &defect);
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Evicts `(kind, key)` into `quarantine/` with a diagnostic — the
    /// service calls this when a *verified* payload fails its semantic
    /// audit (the bytes are intact but the artifact is wrong for the
    /// design), so the entry cannot serve another hit.
    pub fn quarantine(&mut self, kind: ArtifactKind, key: &str, reason: &str) {
        self.index.remove(&(kind, key.to_string()));
        self.quarantine_file(kind, key, reason);
    }

    /// Reads an object file and verifies header + checksum. `expect`
    /// additionally pins the checksum to the journal's record.
    fn read_verified(
        &self,
        kind: ArtifactKind,
        key: &str,
        expect: Option<u128>,
    ) -> Result<Vec<u8>, String> {
        let path = self.object_path(kind, key);
        let mut bytes = Vec::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| format!("unreadable: {e}"))?;
        if bytes.len() < HEADER_LEN {
            return Err(format!("truncated header ({} bytes)", bytes.len()));
        }
        if &bytes[..4] != MAGIC {
            return Err("bad magic".to_string());
        }
        let mut sum = [0u8; 16];
        sum.copy_from_slice(&bytes[4..HEADER_LEN]);
        let recorded = u128::from_be_bytes(sum);
        let payload = bytes.split_off(HEADER_LEN);
        let actual = fnv128(&payload);
        if actual != recorded {
            return Err("checksum mismatch (corrupt payload)".to_string());
        }
        if expect.is_some_and(|e| e != actual) {
            return Err("checksum disagrees with journal".to_string());
        }
        Ok(payload)
    }

    /// Moves an object file into `quarantine/` (best-effort) and records
    /// the diagnostic.
    fn quarantine_file(&mut self, kind: ArtifactKind, key: &str, reason: &str) {
        self.stats.quarantined += 1;
        let src = self.object_path(kind, key);
        let dst = self.root.join("quarantine").join(format!(
            "{:04}-{}-{}.bin",
            self.stats.quarantined,
            kind.dir(),
            key
        ));
        let moved = fs::rename(&src, &dst).is_ok();
        self.diagnostics.push(format!(
            "quarantined {kind}/{key}: {reason}{}",
            if moved { "" } else { " (file already gone)" }
        ));
    }

    fn object_path(&self, kind: ArtifactKind, key: &str) -> PathBuf {
        self.root.join("objects").join(kind.dir()).join(format!("{key}.bin"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.log")
    }

    fn append_manifest(
        &mut self,
        kind: ArtifactKind,
        key: &str,
        len: usize,
        checksum: u128,
    ) -> io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(self.manifest_path())?;
        writeln!(f, "put {} {} {} {:032x}", kind.dir(), key, len, checksum)?;
        f.sync_all()?;
        Ok(())
    }

    /// Crash recovery (see [`Store::open`]).
    fn recover(&mut self) -> io::Result<()> {
        // 1. Journal replay: a malformed line means a torn write — that
        // line and everything after it are dropped with a diagnostic.
        let mut journal: BTreeMap<(ArtifactKind, String), u128> = BTreeMap::new();
        let manifest = self.manifest_path();
        if manifest.exists() {
            let text = fs::read_to_string(&manifest)?;
            for (lineno, line) in text.lines().enumerate() {
                match parse_manifest_line(line) {
                    Some((kind, key, checksum)) => {
                        journal.insert((kind, key), checksum);
                    }
                    None => {
                        self.diagnostics.push(format!(
                            "manifest line {} is torn; dropping it and the {} line(s) after it",
                            lineno + 1,
                            text.lines().count() - lineno - 1
                        ));
                        break;
                    }
                }
            }
        }
        // 2. Object scan: remove stale temps, verify journaled objects,
        // adopt valid orphans (renamed before the crash killed the
        // journal append), quarantine everything else.
        for kind in ArtifactKind::ALL {
            let dir = self.root.join("objects").join(kind.dir());
            let mut names: Vec<String> = fs::read_dir(&dir)?
                .filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .collect();
            names.sort();
            for name in names {
                if name.ends_with(".tmp") {
                    let _ = fs::remove_file(dir.join(&name));
                    self.diagnostics.push(format!(
                        "removed stale temp {}/{name} (interrupted write)",
                        kind.dir()
                    ));
                    continue;
                }
                let Some(key) = name.strip_suffix(".bin").map(str::to_string) else {
                    continue;
                };
                let journaled = journal.remove(&(kind, key.clone()));
                match self.read_verified(kind, &key, journaled) {
                    Ok(payload) => {
                        if journaled.is_none() {
                            self.diagnostics.push(format!(
                                "adopted orphan {}/{key} (object landed, journal append did not)",
                                kind.dir()
                            ));
                        }
                        self.index.insert((kind, key), fnv128(&payload));
                    }
                    Err(defect) => {
                        self.quarantine_file(kind, &key, &defect);
                    }
                }
            }
        }
        // Journal entries with no surviving object are dead.
        for ((kind, key), _) in journal {
            self.diagnostics
                .push(format!("dropped journal entry {}/{key}: object file missing", kind.dir()));
        }
        // 3. Rewrite the journal compacted so the next open replays only
        // verified entries. Same atomic discipline as object writes.
        let tmp = manifest.with_extension("log.tmp");
        {
            let mut f = File::create(&tmp)?;
            for ((kind, key), checksum) in &self.index {
                // Recovery does not retain payload lengths; 0 marks a
                // compacted line (the length is advisory, the checksum is
                // what verification uses).
                writeln!(f, "put {} {} 0 {:032x}", kind.dir(), key, checksum)?;
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, &manifest)?;
        sync_dir(manifest.parent());
        Ok(())
    }
}

/// Parses `put <kind> <key> <len> <checksum>`; `None` for torn lines.
fn parse_manifest_line(line: &str) -> Option<(ArtifactKind, String, u128)> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some("put") {
        return None;
    }
    let kind = ArtifactKind::from_dir(parts.next()?)?;
    let key = parts.next()?.to_string();
    check_key(&key).ok()?;
    let _len: u64 = parts.next()?.parse().ok()?;
    let checksum = u128::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((kind, key, checksum))
}

/// Keys become file names; restrict them to a portable safe set.
fn check_key(key: &str) -> io::Result<()> {
    let ok = !key.is_empty()
        && key.len() <= 128
        && key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
        && !key.starts_with('.');
    if ok {
        Ok(())
    } else {
        Err(io::Error::new(io::ErrorKind::InvalidInput, format!("unsafe store key {key:?}")))
    }
}

/// Best-effort directory fsync after a rename (crash durability on
/// filesystems that need it; harmless elsewhere).
fn sync_dir(dir: Option<&Path>) {
    if let Some(dir) = dir {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// FNV-1a, 128-bit: the store's integrity checksum. Not cryptographic —
/// it guards against truncation and bit rot, not adversaries with write
/// access to the store directory.
fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dp-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trip_and_dedup() {
        let root = temp_root("roundtrip");
        let mut s = Store::open(&root).expect("open");
        assert!(s.is_empty());
        assert!(s.put(ArtifactKind::Netlist, "dp1-abc", b"payload").expect("put"));
        assert!(!s.put(ArtifactKind::Netlist, "dp1-abc", b"payload").expect("dup put"));
        assert_eq!(s.get(ArtifactKind::Netlist, "dp1-abc").as_deref(), Some(&b"payload"[..]));
        assert_eq!(s.get(ArtifactKind::Cluster, "dp1-abc"), None);
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.writes, st.quarantined), (1, 1, 1, 0));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_restores_the_index() {
        let root = temp_root("reopen");
        {
            let mut s = Store::open(&root).expect("open");
            s.put(ArtifactKind::Analysis, "k1", b"one").expect("put");
            s.put(ArtifactKind::Cluster, "k2", b"two").expect("put");
        }
        let mut s = Store::open(&root).expect("reopen");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(ArtifactKind::Analysis, "k1").as_deref(), Some(&b"one"[..]));
        assert_eq!(s.get(ArtifactKind::Cluster, "k2").as_deref(), Some(&b"two"[..]));
        assert!(s.diagnostics().is_empty(), "{:?}", s.diagnostics());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unsafe_keys_are_rejected() {
        let root = temp_root("keys");
        let mut s = Store::open(&root).expect("open");
        for bad in ["", ".", "..", "a/b", "a\\b", ".hidden", "x y", &"k".repeat(200)] {
            assert!(s.put(ArtifactKind::Netlist, bad, b"x").is_err(), "{bad:?} accepted");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn semantic_quarantine_evicts_the_entry() {
        let root = temp_root("semantic");
        let mut s = Store::open(&root).expect("open");
        s.put(ArtifactKind::Netlist, "k", b"bytes-fine-artifact-wrong").expect("put");
        s.quarantine(ArtifactKind::Netlist, "k", "differential audit failed");
        assert_eq!(s.get(ArtifactKind::Netlist, "k"), None);
        assert!(s.diagnostics().iter().any(|d| d.contains("differential audit failed")));
        // The quarantined file exists for autopsy.
        let q: Vec<_> = fs::read_dir(root.join("quarantine")).expect("dir").collect();
        assert_eq!(q.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }
}

//! The region: WAL, memstore, HFiles, flush, compaction, and recovery.

use bytes::Bytes;
use minihdfs::{HdfsError, HdfsPath, MiniHdfs};
use std::collections::BTreeMap;
use std::fmt;

/// Errors raised by region operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HBaseError {
    /// The underlying DFS refused an operation.
    Storage(HdfsError),
    /// The namenode is in safe mode: the region cannot open (HBASE-537).
    NameNodeNotReady,
    /// A stored file is corrupt.
    Corrupt(String),
}

impl fmt::Display for HBaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HBaseError::Storage(e) => write!(f, "DFS error: {e}"),
            HBaseError::NameNodeNotReady => {
                write!(f, "cannot open region: HDFS NameNode is in safe mode")
            }
            HBaseError::Corrupt(m) => write!(f, "corrupt store file: {m}"),
        }
    }
}

impl std::error::Error for HBaseError {}

impl From<HdfsError> for HBaseError {
    fn from(e: HdfsError) -> HBaseError {
        HBaseError::Storage(e)
    }
}

/// A cell key: row then column qualifier.
type CellKey = (Vec<u8>, Vec<u8>);

/// A versioned cell value: logical timestamp plus the payload
/// (`None` = tombstone).
type CellVersion = (u64, Option<Bytes>);

/// One region of a table: the unit of serving and recovery.
///
/// # Examples
///
/// ```
/// use minihbase::Region;
/// use minihdfs::MiniHdfs;
///
/// let mut fs = MiniHdfs::with_datanodes(3);
/// let mut region = Region::open("t1", &mut fs).unwrap();
/// region.put(b"row1", b"cf:a", b"hello", &mut fs).unwrap();
/// assert_eq!(region.get(b"row1", b"cf:a").as_deref(), Some(b"hello".as_ref()));
/// ```
#[derive(Debug)]
pub struct Region {
    name: String,
    memstore: BTreeMap<CellKey, CellVersion>,
    /// Read view of flushed data, merged at flush/compact/open time.
    store: BTreeMap<CellKey, CellVersion>,
    hfiles: Vec<HdfsPath>,
    next_ts: u64,
    wal_entries: u64,
}

impl Region {
    fn base_dir(name: &str) -> HdfsPath {
        HdfsPath::parse("/hbase/data")
            .expect("static path")
            .join(name)
    }

    fn wal_path(name: &str) -> HdfsPath {
        Self::base_dir(name).join("wal")
    }

    /// Opens (or creates) a region, replaying its WAL.
    ///
    /// Fails with [`HBaseError::NameNodeNotReady`] while the namenode is in
    /// safe mode — the condition HBASE-537's shipped startup did not
    /// anticipate.
    pub fn open(name: &str, fs: &mut MiniHdfs) -> Result<Region, HBaseError> {
        if fs.in_safe_mode() {
            return Err(HBaseError::NameNodeNotReady);
        }
        let dir = Self::base_dir(name);
        fs.mkdirs(&dir)?;
        let mut region = Region {
            name: name.to_string(),
            memstore: BTreeMap::new(),
            store: BTreeMap::new(),
            hfiles: Vec::new(),
            next_ts: 1,
            wal_entries: 0,
        };
        // Load flushed store files (oldest first; newer versions win).
        let mut files: Vec<HdfsPath> = fs
            .list_status(&dir)?
            .into_iter()
            .filter(|s| !s.is_dir && s.path.name().is_some_and(|n| n.starts_with("hfile-")))
            .map(|s| s.path)
            .collect();
        files.sort();
        for f in &files {
            let bytes = fs.read(f)?;
            for (key, version) in decode_cells(&bytes)? {
                let ts = version.0;
                region.next_ts = region.next_ts.max(ts + 1);
                region.store.insert(key, version);
            }
        }
        region.hfiles = files;
        // Replay the WAL into the memstore.
        let wal = Self::wal_path(name);
        if fs.exists(&wal) {
            let bytes = fs.read(&wal)?;
            for (key, version) in decode_cells(&bytes)? {
                region.wal_entries += 1;
                region.next_ts = region.next_ts.max(version.0 + 1);
                region.memstore.insert(key, version);
            }
        } else {
            fs.create(&wal, b"")?;
        }
        Ok(region)
    }

    /// Opens a region, retrying while the namenode reports safe mode —
    /// the HBASE-537 fix. `advance` is called between attempts (in tests
    /// it registers datanodes / advances the virtual clock).
    pub fn open_with_retry(
        name: &str,
        fs: &mut MiniHdfs,
        attempts: usize,
        mut advance: impl FnMut(&mut MiniHdfs),
    ) -> Result<Region, HBaseError> {
        let mut last = HBaseError::NameNodeNotReady;
        for _ in 0..attempts.max(1) {
            match Region::open(name, fs) {
                Ok(r) => return Ok(r),
                Err(HBaseError::NameNodeNotReady) => {
                    last = HBaseError::NameNodeNotReady;
                    advance(fs);
                }
                Err(other) => return Err(other),
            }
        }
        Err(last)
    }

    /// The region name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Writes a cell: WAL append first, then memstore.
    pub fn put(
        &mut self,
        row: &[u8],
        column: &[u8],
        value: &[u8],
        fs: &mut MiniHdfs,
    ) -> Result<(), HBaseError> {
        self.log_and_buffer(row, column, Some(Bytes::copy_from_slice(value)), fs)
    }

    /// Deletes a cell (a tombstone, removed at compaction).
    pub fn delete(
        &mut self,
        row: &[u8],
        column: &[u8],
        fs: &mut MiniHdfs,
    ) -> Result<(), HBaseError> {
        self.log_and_buffer(row, column, None, fs)
    }

    fn log_and_buffer(
        &mut self,
        row: &[u8],
        column: &[u8],
        value: Option<Bytes>,
        fs: &mut MiniHdfs,
    ) -> Result<(), HBaseError> {
        let ts = self.next_ts;
        self.next_ts += 1;
        let key = (row.to_vec(), column.to_vec());
        let entry = encode_cell(&key, &(ts, value.clone()));
        fs.append(&Self::wal_path(&self.name), &entry)?;
        self.wal_entries += 1;
        self.memstore.insert(key, (ts, value));
        Ok(())
    }

    /// Reads the latest version of a cell (memstore over store files).
    pub fn get(&self, row: &[u8], column: &[u8]) -> Option<Bytes> {
        let key = (row.to_vec(), column.to_vec());
        let mem = self.memstore.get(&key);
        let stored = self.store.get(&key);
        let newest = match (mem, stored) {
            (Some(m), Some(s)) => {
                if m.0 >= s.0 {
                    m
                } else {
                    s
                }
            }
            (Some(m), None) => m,
            (None, Some(s)) => s,
            (None, None) => return None,
        };
        newest.1.clone()
    }

    /// Scans all live cells of a row, in column order.
    pub fn scan_row(&self, row: &[u8]) -> Vec<(Vec<u8>, Bytes)> {
        let mut merged: BTreeMap<Vec<u8>, CellVersion> = BTreeMap::new();
        for ((r, c), v) in self.store.iter().chain(self.memstore.iter()) {
            if r == row {
                match merged.get(c) {
                    Some(existing) if existing.0 >= v.0 => {}
                    _ => {
                        merged.insert(c.clone(), v.clone());
                    }
                }
            }
        }
        merged
            .into_iter()
            .filter_map(|(c, (_, v))| v.map(|bytes| (c, bytes)))
            .collect()
    }

    /// Flushes the memstore to a new immutable HFile and truncates the WAL.
    pub fn flush(&mut self, fs: &mut MiniHdfs) -> Result<(), HBaseError> {
        if self.memstore.is_empty() {
            return Ok(());
        }
        let cells: Vec<(CellKey, CellVersion)> = self
            .memstore
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let path = Self::base_dir(&self.name).join(&format!("hfile-{:08}", self.hfiles.len()));
        fs.create(&path, encode_cells(&cells))?;
        self.hfiles.push(path);
        for (k, v) in cells {
            match self.store.get(&k) {
                Some(existing) if existing.0 >= v.0 => {}
                _ => {
                    self.store.insert(k, v);
                }
            }
        }
        self.memstore.clear();
        // WAL entries are now durable in the HFile: start a fresh log.
        let wal = Self::wal_path(&self.name);
        fs.delete(&wal, false)?;
        fs.create(&wal, b"")?;
        self.wal_entries = 0;
        Ok(())
    }

    /// Major compaction: merges every HFile into one, dropping shadowed
    /// versions and tombstones.
    pub fn compact(&mut self, fs: &mut MiniHdfs) -> Result<(), HBaseError> {
        let live: Vec<(CellKey, CellVersion)> = self
            .store
            .iter()
            .filter(|(_, (_, v))| v.is_some())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for f in &self.hfiles {
            fs.delete(f, false)?;
        }
        self.hfiles.clear();
        self.store = live.iter().cloned().collect();
        if !live.is_empty() {
            let path = Self::base_dir(&self.name).join("hfile-00000000");
            fs.create(&path, encode_cells(&live))?;
            self.hfiles.push(path);
        }
        Ok(())
    }

    /// WAL entries buffered since the last flush (recovery cost).
    pub fn wal_entries(&self) -> u64 {
        self.wal_entries
    }

    /// Number of store files (compaction pressure).
    pub fn hfile_count(&self) -> usize {
        self.hfiles.len()
    }
}

fn encode_cell(key: &CellKey, version: &CellVersion) -> Vec<u8> {
    let mut out = Vec::new();
    let put = |out: &mut Vec<u8>, bytes: &[u8]| {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    };
    put(&mut out, &key.0);
    put(&mut out, &key.1);
    out.extend_from_slice(&version.0.to_le_bytes());
    match &version.1 {
        Some(v) => {
            out.push(1);
            put(&mut out, v);
        }
        None => out.push(0),
    }
    out
}

fn encode_cells(cells: &[(CellKey, CellVersion)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (k, v) in cells {
        out.extend_from_slice(&encode_cell(k, v));
    }
    out
}

fn decode_cells(mut data: &[u8]) -> Result<Vec<(CellKey, CellVersion)>, HBaseError> {
    fn take<'a>(data: &mut &'a [u8], n: usize) -> Result<&'a [u8], HBaseError> {
        if data.len() < n {
            return Err(HBaseError::Corrupt("truncated cell".into()));
        }
        let (head, tail) = data.split_at(n);
        *data = tail;
        Ok(head)
    }
    fn take_len(data: &mut &[u8]) -> Result<Vec<u8>, HBaseError> {
        let raw = take(data, 4)?;
        let n = u32::from_le_bytes(raw.try_into().expect("4 bytes")) as usize;
        Ok(take(data, n)?.to_vec())
    }
    let mut out = Vec::new();
    while !data.is_empty() {
        let row = take_len(&mut data)?;
        let col = take_len(&mut data)?;
        let ts = u64::from_le_bytes(take(&mut data, 8)?.try_into().expect("8 bytes"));
        let tag = take(&mut data, 1)?[0];
        let value = match tag {
            0 => None,
            1 => Some(Bytes::from(take_len(&mut data)?)),
            other => return Err(HBaseError::Corrupt(format!("bad value tag {other}"))),
        };
        out.push(((row, col), (ts, value)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> MiniHdfs {
        MiniHdfs::with_datanodes(3)
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut fs = fs();
        let mut r = Region::open("t", &mut fs).unwrap();
        r.put(b"row1", b"cf:a", b"v1", &mut fs).unwrap();
        r.put(b"row1", b"cf:b", b"v2", &mut fs).unwrap();
        assert_eq!(r.get(b"row1", b"cf:a").as_deref(), Some(b"v1".as_ref()));
        // Latest version wins.
        r.put(b"row1", b"cf:a", b"v1b", &mut fs).unwrap();
        assert_eq!(r.get(b"row1", b"cf:a").as_deref(), Some(b"v1b".as_ref()));
        // Deletes hide the cell.
        r.delete(b"row1", b"cf:a", &mut fs).unwrap();
        assert_eq!(r.get(b"row1", b"cf:a"), None);
        assert_eq!(r.get(b"row2", b"cf:a"), None);
    }

    #[test]
    fn scan_row_merges_memstore_and_store() {
        let mut fs = fs();
        let mut r = Region::open("t", &mut fs).unwrap();
        r.put(b"r", b"a", b"1", &mut fs).unwrap();
        r.flush(&mut fs).unwrap();
        r.put(b"r", b"b", b"2", &mut fs).unwrap();
        r.put(b"r", b"a", b"1b", &mut fs).unwrap(); // Shadows the flushed cell.
        r.delete(b"r", b"b", &mut fs).unwrap();
        let cells = r.scan_row(b"r");
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].0, b"a");
        assert_eq!(&cells[0].1[..], b"1b");
    }

    #[test]
    fn wal_replay_recovers_unflushed_writes() {
        let mut fs = fs();
        {
            let mut r = Region::open("t", &mut fs).unwrap();
            r.put(b"r", b"a", b"durable", &mut fs).unwrap();
            // The region server "crashes" here: no flush.
        }
        let recovered = Region::open("t", &mut fs).unwrap();
        assert_eq!(
            recovered.get(b"r", b"a").as_deref(),
            Some(b"durable".as_ref())
        );
        assert_eq!(recovered.wal_entries(), 1);
    }

    #[test]
    fn flush_persists_and_truncates_the_wal() {
        let mut fs = fs();
        let mut r = Region::open("t", &mut fs).unwrap();
        r.put(b"r", b"a", b"x", &mut fs).unwrap();
        r.flush(&mut fs).unwrap();
        assert_eq!(r.wal_entries(), 0);
        assert_eq!(r.hfile_count(), 1);
        // Reopen: data comes from the HFile, not the WAL.
        let reopened = Region::open("t", &mut fs).unwrap();
        assert_eq!(reopened.get(b"r", b"a").as_deref(), Some(b"x".as_ref()));
        assert_eq!(reopened.wal_entries(), 0);
    }

    #[test]
    fn compaction_collapses_hfiles_and_drops_tombstones() {
        let mut fs = fs();
        let mut r = Region::open("t", &mut fs).unwrap();
        for i in 0..3u8 {
            r.put(b"r", b"a", &[i], &mut fs).unwrap();
            r.put(b"gone", b"x", &[i], &mut fs).unwrap();
            r.flush(&mut fs).unwrap();
        }
        r.delete(b"gone", b"x", &mut fs).unwrap();
        r.flush(&mut fs).unwrap();
        assert_eq!(r.hfile_count(), 4);
        r.compact(&mut fs).unwrap();
        assert_eq!(r.hfile_count(), 1);
        assert_eq!(r.get(b"r", b"a").as_deref(), Some([2u8].as_ref()));
        assert_eq!(r.get(b"gone", b"x"), None);
        // Reopen after compaction: state intact.
        let reopened = Region::open("t", &mut fs).unwrap();
        assert_eq!(reopened.get(b"r", b"a").as_deref(), Some([2u8].as_ref()));
        assert_eq!(reopened.get(b"gone", b"x"), None);
    }

    #[test]
    fn hbase_537_safe_mode_blocks_open_and_retry_fixes_it() {
        let mut fs = MiniHdfs::new(); // No datanodes yet: safe mode.
        assert!(matches!(
            Region::open("t", &mut fs),
            Err(HBaseError::NameNodeNotReady)
        ));
        // The fixed startup retries while the cluster comes up.
        let mut registered = false;
        let r = Region::open_with_retry("t", &mut fs, 3, |fs| {
            if !registered {
                fs.register_datanode(minihdfs::DataNodeId(0));
                registered = true;
            }
        })
        .unwrap();
        assert_eq!(r.name(), "t");
        // Exhausted retries surface the readiness error.
        let mut fs2 = MiniHdfs::new();
        assert!(matches!(
            Region::open_with_retry("t", &mut fs2, 2, |_| {}),
            Err(HBaseError::NameNodeNotReady)
        ));
    }

    #[test]
    fn corrupt_store_files_fail_cleanly() {
        assert!(matches!(
            decode_cells(&[1, 2, 3]),
            Err(HBaseError::Corrupt(_))
        ));
        let cell = encode_cell(&(b"r".to_vec(), b"c".to_vec()), &(1, None));
        assert!(decode_cells(&cell).is_ok());
        assert!(decode_cells(&cell[..cell.len() - 1]).is_err());
    }
}

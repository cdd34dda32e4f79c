//! Binary trace files: capture a generator's output once, replay it many
//! times (like ChampSim's trace files, minus the xz).
//!
//! Format: a 16-byte header (`magic "CXTR"`, version, record count) followed
//! by fixed 17-byte little-endian records:
//!
//! ```text
//! u32 nonmem_before | u32 pc | u64 line_addr | u8 flags (bit0 store, bit1 dep)
//! ```
//!
//! A line address above `coaxial_cache::cache::MAX_LINE_ADDR` does not fit
//! the cache arrays, so the reader refuses it.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::trace::{MemKind, TraceOp, TraceSource};

const MAGIC: &[u8; 4] = b"CXTR";
const VERSION: u32 = 1;
const RECORD_BYTES: usize = 17;

/// Write `ops` to a trace file at `path`.
pub fn write_trace(path: &Path, ops: &[TraceOp]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(ops.len() as u64).to_le_bytes())?;
    for op in ops {
        w.write_all(&op.nonmem_before.to_le_bytes())?;
        w.write_all(&op.pc.to_le_bytes())?;
        w.write_all(&op.line_addr.to_le_bytes())?;
        let mut flags = 0u8;
        if op.kind == MemKind::Store {
            flags |= 1;
        }
        if op.depends_on_last_load {
            flags |= 2;
        }
        w.write_all(&[flags])?;
    }
    w.flush()
}

/// Capture `count` ops from any source into a trace file.
pub fn capture(path: &Path, source: &mut dyn TraceSource, count: usize) -> io::Result<()> {
    let ops: Vec<TraceOp> = (0..count).map(|_| source.next_op()).collect();
    write_trace(path, &ops)
}

/// Read a whole trace file into memory.
pub fn read_trace(path: &Path) -> io::Result<Vec<TraceOp>> {
    let file = File::open(path)?;
    // The header's count is untrusted: reserve no more records than the
    // file can hold, so a lying count ends in `UnexpectedEof` below.
    let max_records = file.metadata()?.len() / RECORD_BYTES as u64;
    let mut r = BufReader::new(file);
    let mut header = [0u8; 16];
    r.read_exact(&mut header)?;
    if &header[0..4] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a CXTR trace file"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    let count = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let mut ops = Vec::with_capacity(coaxial_sim::idx(count.min(max_records)));
    let mut rec = [0u8; RECORD_BYTES];
    for _ in 0..count {
        r.read_exact(&mut rec)?;
        let flags = rec[16];
        let line_addr = u64::from_le_bytes(rec[8..16].try_into().unwrap());
        if line_addr > coaxial_cache::cache::MAX_LINE_ADDR {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line address {line_addr:#x} out of range"),
            ));
        }
        ops.push(TraceOp {
            nonmem_before: u32::from_le_bytes(rec[0..4].try_into().unwrap()),
            pc: u32::from_le_bytes(rec[4..8].try_into().unwrap()),
            line_addr,
            kind: if flags & 1 != 0 { MemKind::Store } else { MemKind::Load },
            depends_on_last_load: flags & 2 != 0,
        });
    }
    Ok(ops)
}

/// A [`TraceSource`] replaying a trace file (looping forever, like every
/// other source in this project). Cursors over one file share its ops.
pub struct FileTrace {
    ops: Arc<[TraceOp]>,
    pos: usize,
}

impl FileTrace {
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(Self::shared(Self::load(path)?))
    }

    /// Read a trace file once for any number of [`FileTrace::shared`]
    /// cursors; an empty trace is an error (there is nothing to loop).
    pub fn load(path: &Path) -> io::Result<Arc<[TraceOp]>> {
        let ops = read_trace(path)?;
        if ops.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty trace"));
        }
        Ok(ops.into())
    }

    /// A cursor at the start of `ops` (from [`FileTrace::load`]).
    pub fn shared(ops: Arc<[TraceOp]>) -> Self {
        assert!(!ops.is_empty(), "a trace replay needs at least one op");
        Self { ops, pos: 0 }
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl TraceSource for FileTrace {
    fn next_op(&mut self) -> TraceOp {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("coaxial-trace-test-{name}-{}", std::process::id()));
        p
    }

    fn sample_ops() -> Vec<TraceOp> {
        vec![
            TraceOp::load(3, 0xDEAD_BEEF, 0x40),
            TraceOp::store(0, 0xCAFE, 0x44),
            TraceOp::load(100, coaxial_cache::cache::MAX_LINE_ADDR, 0x48).dependent(),
        ]
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let path = temp("roundtrip");
        let ops = sample_ops();
        write_trace(&path, &ops).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(back, ops);
        std::fs::remove_file(&path).ok();
    }

    /// Seeded corruptions of a trace file: `read_trace` and `open` never
    /// panic, and a parse never yields more records than the file holds.
    #[test]
    fn seeded_fuzz_of_trace_files_never_panics() {
        let path = temp("fuzz");
        let ops: Vec<TraceOp> = (0..40).map(|i| TraceOp::load(i, u64::from(i) * 64, i)).collect();
        write_trace(&path, &ops).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let mut rng = coaxial_sim::SplitMix64::new(0x7EAC);
        let mut parsed = 0;
        for _ in 0..400 {
            let bad = rng.corrupt(&raw);
            std::fs::write(&path, &bad).unwrap();
            if let Ok(back) = read_trace(&path) {
                assert!(16 + back.len() * RECORD_BYTES <= bad.len(), "more records than bytes");
                parsed += 1;
            }
            let _ = FileTrace::open(&path);
        }
        assert!(parsed > 0, "the fuzzer must reach a successful parse");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_trace_loops() {
        let path = temp("loop");
        write_trace(&path, &sample_ops()).unwrap();
        let mut t = FileTrace::open(&path).unwrap();
        assert_eq!(t.len(), 3);
        let first = t.next_op();
        t.next_op();
        t.next_op();
        assert_eq!(t.next_op(), first, "wraps around");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn capture_records_from_a_live_source() {
        let path = temp("capture");
        let mut src = crate::trace::VecTrace::new(sample_ops());
        capture(&path, &mut src, 7).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(back.len(), 7);
        assert_eq!(back[0], sample_ops()[0]);
        assert_eq!(back[3], sample_ops()[0], "capture follows the looping source");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage_files() {
        let path = temp("garbage");
        let header =
            |count: u64| [&MAGIC[..], &VERSION.to_le_bytes(), &count.to_le_bytes()].concat();
        for (bytes, kind) in [
            (b"not a trace at all".to_vec(), io::ErrorKind::InvalidData),
            (header(1 << 40), io::ErrorKind::UnexpectedEof),
            (header(u64::MAX), io::ErrorKind::UnexpectedEof),
            (
                [header(1), vec![0; 8], (u64::MAX >> 1).to_le_bytes().to_vec(), vec![0]].concat(),
                io::ErrorKind::InvalidData,
            ),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(read_trace(&path).unwrap_err().kind(), kind);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_version() {
        let path = temp("version");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(err.to_string().contains("version"));
        std::fs::remove_file(&path).ok();
    }
}

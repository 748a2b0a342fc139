//! Data handles and access-mode annotations.
//!
//! Every task names the data regions it touches and how: read, write, or
//! read-write. In the paper's pseudo-code (Fig. 2) these appear as the
//! `r`/`w`/`rw` superscripts on the tile arguments.

use serde::{Deserialize, Serialize};

/// Opaque identity of a data region (e.g. one matrix tile).
///
/// In a C runtime this would be the data's base address; here it is an
/// abstract id handed out by whoever owns the data (the tile layout, the
/// runtime's handle registry, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DataId(pub u64);

/// How a task accesses one data region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessMode {
    /// Input only.
    Read,
    /// Output only.
    Write,
    /// Input and output.
    ReadWrite,
}

impl AccessMode {
    /// Whether the access reads the data.
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// Whether the access writes the data.
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }

    /// Whether two accesses to the same data conflict (at least one write).
    pub fn conflicts_with(self, other: AccessMode) -> bool {
        self.writes() || other.writes()
    }
}

/// One data access of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Access {
    /// Which data region.
    pub data: DataId,
    /// How it is accessed.
    pub mode: AccessMode,
    /// Size of the region in bytes (0 = unknown). Edges that cross a data
    /// distribution use this to cost the transfer; single-node scheduling
    /// ignores it.
    #[serde(default)]
    pub bytes: u64,
}

impl Access {
    /// Read access to `data`.
    pub fn read(data: DataId) -> Self {
        Access {
            data,
            mode: AccessMode::Read,
            bytes: 0,
        }
    }

    /// Write access to `data`.
    pub fn write(data: DataId) -> Self {
        Access {
            data,
            mode: AccessMode::Write,
            bytes: 0,
        }
    }

    /// Read-write access to `data`.
    pub fn read_write(data: DataId) -> Self {
        Access {
            data,
            mode: AccessMode::ReadWrite,
            bytes: 0,
        }
    }

    /// Annotate the access with the region's size in bytes.
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }
}

/// Normalize an access list: merge duplicate regions, upgrading the mode if
/// a region appears with multiple modes (read + write → read-write).
///
/// Schedulers require each data argument to appear once; workload
/// generators may produce duplicates (e.g. a kernel using one tile as two
/// arguments), so this is applied at submission.
pub fn normalize_accesses(accesses: &[Access]) -> Vec<Access> {
    let mut out = Vec::with_capacity(accesses.len());
    normalize_accesses_into(accesses, &mut out);
    out
}

/// [`normalize_accesses`] into a caller-owned buffer (cleared first), so a
/// submission loop normalizes every task through one reused allocation.
pub fn normalize_accesses_into(accesses: &[Access], out: &mut Vec<Access>) {
    out.clear();
    for &a in accesses {
        if let Some(existing) = out.iter_mut().find(|e| e.data == a.data) {
            existing.bytes = existing.bytes.max(a.bytes);
            existing.mode = match (
                existing.mode.reads() || a.mode.reads(),
                existing.mode.writes() || a.mode.writes(),
            ) {
                (true, true) => AccessMode::ReadWrite,
                (true, false) => AccessMode::Read,
                (false, true) => AccessMode::Write,
                (false, false) => unreachable!("access must read or write"),
            };
        } else {
            out.push(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(AccessMode::Read.reads());
        assert!(!AccessMode::Read.writes());
        assert!(AccessMode::Write.writes());
        assert!(!AccessMode::Write.reads());
        assert!(AccessMode::ReadWrite.reads() && AccessMode::ReadWrite.writes());
    }

    #[test]
    fn conflict_rules() {
        use AccessMode::*;
        assert!(!Read.conflicts_with(Read));
        assert!(Read.conflicts_with(Write));
        assert!(Write.conflicts_with(Read));
        assert!(Write.conflicts_with(Write));
        assert!(ReadWrite.conflicts_with(Read));
    }

    #[test]
    fn constructors() {
        let d = DataId(3);
        assert_eq!(Access::read(d).mode, AccessMode::Read);
        assert_eq!(Access::write(d).mode, AccessMode::Write);
        assert_eq!(Access::read_write(d).mode, AccessMode::ReadWrite);
    }

    #[test]
    fn normalize_merges_duplicates() {
        let d = DataId(1);
        let e = DataId(2);
        let norm = normalize_accesses(&[Access::read(d), Access::write(d), Access::read(e)]);
        assert_eq!(norm.len(), 2);
        assert_eq!(norm[0].data, d);
        assert_eq!(norm[0].mode, AccessMode::ReadWrite);
        assert_eq!(norm[1], Access::read(e));
    }

    #[test]
    fn bytes_ride_along_and_merge_by_max() {
        let d = DataId(1);
        assert_eq!(Access::read(d).bytes, 0);
        assert_eq!(Access::read(d).with_bytes(4096).bytes, 4096);
        let norm = normalize_accesses(&[
            Access::read(d).with_bytes(100),
            Access::write(d).with_bytes(300),
        ]);
        assert_eq!(norm.len(), 1);
        assert_eq!(norm[0].mode, AccessMode::ReadWrite);
        assert_eq!(norm[0].bytes, 300);
    }

    #[test]
    fn normalize_keeps_single_mode() {
        let d = DataId(1);
        let norm = normalize_accesses(&[Access::read(d), Access::read(d)]);
        assert_eq!(norm, vec![Access::read(d)]);
        let norm = normalize_accesses(&[Access::write(d), Access::write(d)]);
        assert_eq!(norm, vec![Access::write(d)]);
    }
}

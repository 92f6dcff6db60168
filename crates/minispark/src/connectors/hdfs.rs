//! Spark's HDFS connector (`InputFileBlockHolder` and friends).
//!
//! Carries the SPARK-27239 discrepancy of Figures 2 and 4: Spark asserts
//! that a valid file's length is non-negative, while the store reports `-1`
//! for compressed files — a *documented sentinel* on the HDFS side, an
//! *undefined value* from Spark's perspective.

use crate::error::SparkError;
use csi_core::boundary::{BoundaryCall, CrossingContext};
use csi_core::fault::Channel;
use minihdfs::{FileBytes, HdfsPath, MiniHdfs};

/// Whether the connector runs the shipped (pre-fix) length check or the
/// fixed one (Figure 4: accept `-1` as valid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LengthCheck {
    /// `require(length >= 0)` — the shipped behavior.
    Shipped,
    /// `require(length >= -1)` — the SPARK-27239 fix.
    Fixed,
}

/// Reads a file the way a Spark task does: fetch the status, validate the
/// block holder invariants, then read the bytes. The connector-level
/// crossing is recorded in `ctx` — the filesystem's own `read` still
/// crosses through the boundary the deployment wired into it; this extra
/// record marks the task-side entry so the trace shows *Spark's* view of
/// the interaction too. Callers without a trace pass
/// [`CrossingContext::disabled`].
pub fn read_file<'a>(
    fs: &'a MiniHdfs,
    path: &HdfsPath,
    check: LengthCheck,
    ctx: &CrossingContext,
) -> Result<FileBytes<'a>, SparkError> {
    ctx.record(
        BoundaryCall::new(Channel::Hdfs, "task_read").with_payload_fmt(format_args!("{path}")),
    );
    let status = fs
        .get_file_status(path)
        .map_err(|e| SparkError::Connector {
            code: "HDFS",
            message: e.to_string(),
        })?;
    let min = match check {
        LengthCheck::Shipped => 0,
        LengthCheck::Fixed => -1,
    };
    if status.len < min {
        // The exact failure of Figure 2: the job dies on an assertion.
        return Err(SparkError::Assertion {
            message: format!(
                "length ({}) cannot be {}",
                status.len,
                if min == 0 {
                    "negative"
                } else {
                    "smaller than -1"
                }
            ),
        });
    }
    fs.read(path).map_err(|e| SparkError::Connector {
        code: "HDFS",
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn off() -> CrossingContext {
        CrossingContext::disabled()
    }

    fn fs_with_files() -> (MiniHdfs, HdfsPath, HdfsPath) {
        let mut fs = MiniHdfs::with_datanodes(1);
        let plain = HdfsPath::parse("/data/plain.txt").unwrap();
        let gz = HdfsPath::parse("/data/logs.gz").unwrap();
        fs.create(&plain, b"plain data").unwrap();
        fs.create_compressed(&gz, b"compressed data").unwrap();
        (fs, plain, gz)
    }

    #[test]
    fn plain_files_read_under_both_checks() {
        let (fs, plain, _) = fs_with_files();
        for check in [LengthCheck::Shipped, LengthCheck::Fixed] {
            assert_eq!(
                read_file(&fs, &plain, check, &off()).unwrap().as_ref(),
                b"plain data"
            );
        }
    }

    #[test]
    fn compressed_file_crashes_shipped_spark() {
        // SPARK-27239 / Figure 2.
        let (fs, _, gz) = fs_with_files();
        let err = read_file(&fs, &gz, LengthCheck::Shipped, &off()).unwrap_err();
        assert!(err.to_string().contains("length (-1) cannot be negative"));
    }

    #[test]
    fn fix_accepts_the_sentinel() {
        // Figure 4.
        let (fs, _, gz) = fs_with_files();
        assert_eq!(
            read_file(&fs, &gz, LengthCheck::Fixed, &off())
                .unwrap()
                .as_ref(),
            b"compressed data"
        );
    }

    #[test]
    fn missing_files_are_clean_connector_errors() {
        let (fs, _, _) = fs_with_files();
        let nope = HdfsPath::parse("/nope").unwrap();
        let err = read_file(&fs, &nope, LengthCheck::Fixed, &off()).unwrap_err();
        assert_eq!(err.code(), "HDFS");
    }
}

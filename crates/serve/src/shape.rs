//! Shape classification: which fused grid a job can ride in.
//!
//! Only jobs with the *same* shape key can share a launch — they use the
//! same kernel binary, the same buffer strides, and the same constant
//! image, so fusing them costs nothing but an index range.

use crate::error::AdmitError;
use crate::job::JobKind;
use crate::{ServeConfig, FM_READ_LEN, PAIRWISE_BUCKETS, PHMM_HAP_LEN, PHMM_READ_LEN};

/// Batching key. Two jobs fuse into one grid iff their keys are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShapeKey {
    /// Smith–Waterman pairs padded to `bucket` bases (one of
    /// [`crate::PAIRWISE_BUCKETS`]; the kernel is compiled per bucket).
    Pairwise {
        /// Buffer stride in bases.
        bucket: u32,
    },
    /// FM-index mapping at the service's fixed read length.
    Fm,
    /// Pair-HMM at the service's fixed read/haplotype lengths.
    PairHmm,
}

impl std::fmt::Display for ShapeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeKey::Pairwise { bucket } => write!(f, "pairwise/{bucket}"),
            ShapeKey::Fm => write!(f, "fm-map"),
            ShapeKey::PairHmm => write!(f, "pairhmm"),
        }
    }
}

/// Classify a job against the service's configured shapes, or reject it
/// with a typed admission error.
pub(crate) fn shape_of(kind: &JobKind, cfg: &ServeConfig) -> Result<ShapeKey, AdmitError> {
    match kind {
        JobKind::Pairwise { query, target } => {
            let len = query.len().max(target.len());
            if len == 0 {
                return Err(AdmitError::UnsupportedShape {
                    why: "empty pairwise sequences".into(),
                });
            }
            let bucket = PAIRWISE_BUCKETS
                .into_iter()
                .find(|&b| len <= b as usize)
                .ok_or(AdmitError::TooLarge {
                    len,
                    max: PAIRWISE_BUCKETS[PAIRWISE_BUCKETS.len() - 1] as usize,
                })?;
            Ok(ShapeKey::Pairwise { bucket })
        }
        JobKind::FmMap { read } => {
            if cfg.fm_genome.is_empty() {
                return Err(AdmitError::UnsupportedShape {
                    why: "service built without an FM reference".into(),
                });
            }
            if read.len() != FM_READ_LEN as usize {
                return Err(AdmitError::UnsupportedShape {
                    why: format!("FM read length {} != configured {FM_READ_LEN}", read.len()),
                });
            }
            Ok(ShapeKey::Fm)
        }
        JobKind::PairHmm { read, quals, hap } => {
            if read.len() != PHMM_READ_LEN as usize || quals.len() != read.len() {
                return Err(AdmitError::UnsupportedShape {
                    why: format!(
                        "PairHMM read/qual lengths {}/{} != configured {PHMM_READ_LEN}",
                        read.len(),
                        quals.len()
                    ),
                });
            }
            if hap.len() != PHMM_HAP_LEN as usize {
                return Err(AdmitError::UnsupportedShape {
                    why: format!(
                        "PairHMM hap length {} != configured {PHMM_HAP_LEN}",
                        hap.len()
                    ),
                });
            }
            Ok(ShapeKey::PairHmm)
        }
    }
}

//! Model registry: construct any encoder family — at any serving
//! precision — from one typed spec.
//!
//! The PR-10 API redesign replaces the stringly model-selection knobs
//! with [`EncoderSpec`] (`kind` + `precision`): [`build_encoder`] is the
//! one constructor the pipeline, serving layer, CLI, and benches all go
//! through, and [`ModelKind`]'s `FromStr`/`Display` pair is the one
//! parser shared by CLI flags, the wire protocol, and index metadata
//! stamps.

use crate::pipeline::EncodeError;
use ntr_models::{Mate, ModelConfig, RowStudent, SequenceEncoder, Tapas, Turl, VanillaBert};
use ntr_tasks::pretrain::MlmModel;

pub use ntr_models::QuantSpec;

/// Encoder families constructible through [`build_encoder`].
///
/// TaBERT and TAPEX have structurally different interfaces (table-native
/// encoding and seq2seq generation respectively) and are built directly via
/// [`ntr_models::TaBert::new`] / [`ntr_models::Tapex::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Structure-blind BERT baseline.
    Bert,
    /// TAPAS-style structural embeddings.
    Tapas,
    /// TURL-style visibility-matrix attention (+ MER head).
    Turl,
    /// MATE-style row/column sparse attention.
    Mate,
    /// Distilled per-row student (no attention; trained via `ntr distill`,
    /// serves at f32 or int8 — see DESIGN.md §13).
    RowStudent,
}

impl ModelKind {
    /// All registry kinds.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::Bert,
        ModelKind::Tapas,
        ModelKind::Turl,
        ModelKind::Mate,
        ModelKind::RowStudent,
    ];

    /// Stable name for reports, CLI flags, wire requests, and index
    /// metadata; round-trips through the `FromStr` impl.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Bert => "bert",
            ModelKind::Tapas => "tapas",
            ModelKind::Turl => "turl",
            ModelKind::Mate => "mate",
            ModelKind::RowStudent => "row-student",
        }
    }

    /// The `"bert, tapas, …"` list used in every parse-failure message,
    /// so CLI and wire errors cannot drift from the registry.
    pub fn names_joined() -> String {
        ModelKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown model {s:?}; expected one of {}",
                    ModelKind::names_joined()
                )
            })
    }
}

/// The typed model-selection spec: which family, at which precision.
///
/// This is what `PipelineBuilder::encoder`, `ServeRequest`, and
/// `ntr index build` accept; the stringly/env-driven knobs they replace
/// delegate here at [`QuantSpec::F32`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncoderSpec {
    /// Encoder family.
    pub kind: ModelKind,
    /// Serving precision.
    pub precision: QuantSpec,
}

impl EncoderSpec {
    /// A spec at the given precision.
    pub fn new(kind: ModelKind, precision: QuantSpec) -> Self {
        Self { kind, precision }
    }

    /// The exact-f32 spec for a family (what every pre-redesign call
    /// site meant).
    pub fn f32(kind: ModelKind) -> Self {
        Self::new(kind, QuantSpec::F32)
    }

    /// The int8 spec (only [`ModelKind::RowStudent`] can serve it).
    pub fn int8(kind: ModelKind) -> Self {
        Self::new(kind, QuantSpec::Int8)
    }

    /// Checks that the family supports the requested precision.
    pub fn validate(self) -> Result<(), EncodeError> {
        if self.precision == QuantSpec::Int8 && self.kind != ModelKind::RowStudent {
            return Err(EncodeError::BadModelChoice {
                detail: format!(
                    "model {} has no int8 inference path; only row-student serves at int8",
                    self.kind
                ),
            });
        }
        Ok(())
    }
}

impl std::fmt::Display for EncoderSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.kind, self.precision)
    }
}

/// Builds a boxed encoder for the spec, with the precision applied.
///
/// For [`ModelKind::Turl`] with `cfg.n_entities == 0`, a minimal entity
/// vocabulary of 1 is substituted so the model is constructible for tasks
/// that never touch the MER head.
pub fn build_encoder(
    spec: EncoderSpec,
    cfg: &ModelConfig,
) -> Result<Box<dyn SequenceEncoder + Send>, EncodeError> {
    spec.validate()?;
    Ok(match spec.kind {
        ModelKind::Bert => Box::new(VanillaBert::new(cfg)),
        ModelKind::Tapas => Box::new(Tapas::new(cfg)),
        ModelKind::Turl => {
            let cfg = ModelConfig {
                n_entities: cfg.n_entities.max(1),
                ..*cfg
            };
            Box::new(Turl::new(&cfg))
        }
        ModelKind::Mate => Box::new(Mate::new(cfg)),
        ModelKind::RowStudent => {
            let mut m = RowStudent::new(cfg);
            m.set_precision(spec.precision);
            Box::new(m)
        }
    })
}

/// Builds a boxed MLM-capable model for `ntr pretrain`-style loops, or a
/// typed error for families without an MLM head.
pub fn build_mlm_model(
    kind: ModelKind,
    cfg: &ModelConfig,
) -> Result<Box<dyn MlmModel + Send>, EncodeError> {
    Ok(match kind {
        ModelKind::Bert => Box::new(VanillaBert::new(cfg)),
        ModelKind::Tapas => Box::new(Tapas::new(cfg)),
        ModelKind::Turl => {
            let cfg = ModelConfig {
                n_entities: cfg.n_entities.max(1),
                ..*cfg
            };
            Box::new(Turl::new(&cfg))
        }
        ModelKind::Mate => Box::new(Mate::new(cfg)),
        ModelKind::RowStudent => {
            return Err(EncodeError::BadModelChoice {
                detail: "row-student has no MLM head; train it with `ntr distill`".to_string(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_models::EncoderInput;

    fn sample_input() -> EncoderInput {
        EncoderInput {
            ids: vec![2, 8, 9, 3, 10, 11],
            rows: vec![0, 0, 0, 0, 1, 1],
            cols: vec![0, 0, 0, 0, 1, 2],
            segments: vec![0, 0, 0, 1, 1, 1],
            kinds: vec![0, 1, 1, 0, 3, 3],
            ranks: vec![0, 0, 0, 0, 0, 1],
        }
    }

    #[test]
    fn all_kinds_build_and_encode() {
        let cfg = ModelConfig::tiny(64);
        let input = sample_input();
        for kind in ModelKind::ALL {
            let m = build_encoder(EncoderSpec::f32(kind), &cfg).unwrap();
            let states = m.encode(&input, false);
            assert_eq!(states.shape(), &[6, 16], "{}", kind.name());
            assert_eq!(m.family(), kind.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = ModelKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn parse_display_round_trip() {
        for kind in ModelKind::ALL {
            assert_eq!(kind.to_string().parse::<ModelKind>(), Ok(kind));
        }
        for q in QuantSpec::ALL {
            assert_eq!(q.to_string().parse::<QuantSpec>(), Ok(q));
        }
        let err = "no-such-model".parse::<ModelKind>().unwrap_err();
        assert!(
            err.contains("bert, tapas, turl, mate, row-student"),
            "{err}"
        );
    }

    #[test]
    fn int8_is_student_only() {
        let cfg = ModelConfig::tiny(64);
        for kind in ModelKind::ALL {
            let spec = EncoderSpec::int8(kind);
            match kind {
                ModelKind::RowStudent => {
                    let m = build_encoder(spec, &cfg).unwrap();
                    assert_eq!(m.encode(&sample_input(), false).shape(), &[6, 16]);
                }
                _ => match build_encoder(spec, &cfg) {
                    Err(EncodeError::BadModelChoice { detail }) => {
                        assert!(detail.contains("int8"), "{detail}")
                    }
                    Err(e) => panic!("expected BadModelChoice, got {e}"),
                    Ok(_) => panic!("int8 {kind} must be rejected"),
                },
            }
        }
    }

    #[test]
    fn mlm_registry_covers_teachers_and_rejects_the_student() {
        let cfg = ModelConfig::tiny(64);
        for kind in ModelKind::ALL {
            match (kind, build_mlm_model(kind, &cfg)) {
                (ModelKind::RowStudent, Err(EncodeError::BadModelChoice { .. })) => {}
                (ModelKind::RowStudent, other) => {
                    panic!("student must be rejected, got {:?}", other.map(|_| ()))
                }
                (_, Ok(m)) => assert_eq!(m.family(), kind.name()),
                (_, Err(e)) => panic!("{kind} should be MLM-capable: {e}"),
            }
        }
    }
}

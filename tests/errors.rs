//! The error surface as API: `Display` texts, `#[non_exhaustive]`
//! classification matching, `From` conversions and `std::error::Error`
//! trait-object coercion for [`MapperError`], [`RemapError`] and
//! [`ServiceError`] — including the fault-containment variants
//! (`Internal`, `SessionPoisoned`) introduced with docs/ROBUSTNESS.md.
//!
//! Display strings are load-bearing: operators grep logs for them and
//! the chaos harness classifies on the variants, so changes here are
//! API changes and should be deliberate.

use std::sync::Arc;

use spmap::graph::gen::{random_sp_graph, SpGenConfig};
use spmap::model::{DeviceId, Platform};
use spmap_core::{
    Algo, MapRequest, MapService, MapperError, RemapError, ServiceConfig, ServiceError, SessionId,
};
use spmap_graph::NodeId;

#[test]
fn mapper_error_display_is_pinned() {
    let nan = MapperError::NanDelta { op: 42 };
    let text = nan.to_string();
    assert!(
        text.contains("candidate operation 42") && text.contains("NaN"),
        "NanDelta display drifted: {text}"
    );
    let unsupported = MapperError::UnsupportedAlgo { algo: "ga" };
    let text = unsupported.to_string();
    assert!(
        text.contains("'ga'") && text.contains("not executable"),
        "UnsupportedAlgo display drifted: {text}"
    );
    let text = MapperError::InvalidGamma.to_string();
    assert!(
        text.contains("γ-threshold") && text.contains(">= 1"),
        "InvalidGamma display drifted: {text}"
    );
    let text = MapperError::UnknownDevice {
        device: DeviceId(99),
    }
    .to_string();
    assert!(
        text.contains("DeviceId(99)") && text.contains("platform does not have"),
        "UnknownDevice display drifted: {text}"
    );
}

/// A malformed request is a caller's mistake: both service entry points
/// that run a decomposition search refuse it with a typed
/// [`MapperError`], never a contained panic (`Internal`).
#[test]
fn invalid_requests_get_typed_errors_through_map_and_open_session() {
    let graph = Arc::new(random_sp_graph(&SpGenConfig::new(16, 3)));
    let base = MapRequest::new(graph, Arc::new(Platform::reference()));
    let mut cases: Vec<(MapRequest, MapperError)> = [0.5, f64::NAN, f64::NEG_INFINITY]
        .into_iter()
        .map(|gamma| {
            (
                base.clone().with_algo(Algo::GammaThreshold { gamma }),
                MapperError::InvalidGamma,
            )
        })
        .collect();
    let mut out_of_range = base.clone();
    out_of_range.limits.devices = Some(vec![DeviceId(0), DeviceId(99)]);
    cases.push((
        out_of_range,
        MapperError::UnknownDevice {
            device: DeviceId(99),
        },
    ));

    let svc = MapService::new(ServiceConfig::default());
    for (req, want) in &cases {
        let mapped = svc.map(req).map(|_| ());
        assert_eq!(mapped, Err(ServiceError::Mapper(*want)), "map: {want:?}");
        let opened = svc.open_session(req).map(|_| ());
        assert_eq!(
            opened,
            Err(ServiceError::Mapper(*want)),
            "open_session: {want:?}"
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.failed, 0, "no refusal may be a contained panic");
    assert_eq!(stats.sessions_opened, 0);
    // The boundary value stays legal.
    assert!(svc
        .map(&base.with_algo(Algo::GammaThreshold { gamma: 1.0 }))
        .is_ok());
}

#[test]
fn remap_error_display_is_pinned() {
    let cases: Vec<(RemapError, &str)> = vec![
        (
            RemapError::Mapper(MapperError::NanDelta { op: 7 }),
            "remap search failed:",
        ),
        (RemapError::UnknownDevice(DeviceId(3)), "unknown device"),
        (
            RemapError::DefaultDeviceUnavailable(DeviceId(0)),
            "default (repair) device",
        ),
        (RemapError::UnknownNode(NodeId(9)), "unknown node"),
        (
            RemapError::UnknownArrivingNode(4),
            "arriving node 4 out of range",
        ),
        (
            RemapError::WouldEmptyGraph,
            "close the session instead of remapping",
        ),
    ];
    for (err, needle) in cases {
        let text = err.to_string();
        assert!(text.contains(needle), "{err:?} display drifted: {text}");
    }
}

#[test]
fn service_error_display_is_pinned() {
    let overloaded = ServiceError::Overloaded {
        inflight: 2,
        queued: 3,
        retry_hint: 4,
    };
    let text = overloaded.to_string();
    assert!(
        text.contains("2 requests in flight and 3 queued")
            && text.contains("retry after 4 completions"),
        "Overloaded display drifted: {text}"
    );

    assert_eq!(
        ServiceError::UnknownSession(SessionId(5)).to_string(),
        "unknown session#5"
    );

    // The containment variant names its boundary and carries the panic
    // payload verbatim — that pair is what an operator greps for.
    assert_eq!(
        ServiceError::Internal {
            site: "map",
            payload: "boom".to_string(),
        }
        .to_string(),
        "internal fault contained at service map: boom"
    );

    // The poison refusal must name both recovery paths.
    let text = ServiceError::SessionPoisoned(SessionId(8)).to_string();
    assert!(
        text.contains("session#8") && text.contains("remap_full") && text.contains("close_session"),
        "SessionPoisoned display drifted: {text}"
    );
}

/// All three enums are `#[non_exhaustive]`: downstream classification
/// must compile with a wildcard arm, and the classification the chaos
/// harness relies on (retryable / typed refusal / contained fault) must
/// be derivable from matching alone.
#[test]
fn non_exhaustive_classification_matches() {
    fn classify(err: &ServiceError) -> &'static str {
        match err {
            ServiceError::Overloaded { .. } => "retryable",
            ServiceError::Mapper(_) | ServiceError::Session(_) => "typed refusal",
            ServiceError::UnknownSession(_) => "typed refusal",
            ServiceError::SessionPoisoned(_) => "recoverable via remap_full",
            ServiceError::Internal { .. } => "contained fault",
            // `#[non_exhaustive]`: future variants must not break
            // downstream builds.
            _ => "unknown",
        }
    }
    assert_eq!(
        classify(&ServiceError::Overloaded {
            inflight: 1,
            queued: 0,
            retry_hint: 1,
        }),
        "retryable"
    );
    assert_eq!(
        classify(&ServiceError::Internal {
            site: "remap",
            payload: String::new(),
        }),
        "contained fault"
    );
    assert_eq!(
        classify(&ServiceError::SessionPoisoned(SessionId(1))),
        "recoverable via remap_full"
    );

    fn mapper_kind(err: &MapperError) -> &'static str {
        match err {
            MapperError::NanDelta { .. } => "nan",
            MapperError::UnsupportedAlgo { .. } => "routing",
            _ => "unknown",
        }
    }
    assert_eq!(mapper_kind(&MapperError::NanDelta { op: 0 }), "nan");

    fn remap_kind(err: &RemapError) -> &'static str {
        match err {
            RemapError::Mapper(_) => "search",
            RemapError::WouldEmptyGraph => "lifecycle",
            _ => "perturbation",
        }
    }
    assert_eq!(
        remap_kind(&RemapError::UnknownDevice(DeviceId(1))),
        "perturbation"
    );
}

#[test]
fn from_conversions_preserve_the_inner_error() {
    let nan = MapperError::NanDelta { op: 11 };

    let as_remap: RemapError = nan.into();
    assert_eq!(as_remap, RemapError::Mapper(nan));

    let as_service: ServiceError = nan.into();
    assert_eq!(as_service, ServiceError::Mapper(nan));

    // A mapper failure inside a session flattens to `Mapper`, not
    // `Session(Mapper(..))` — one variant per failure class.
    let flattened: ServiceError = RemapError::Mapper(nan).into();
    assert_eq!(flattened, ServiceError::Mapper(nan));

    let kept: ServiceError = RemapError::UnknownDevice(DeviceId(2)).into();
    assert_eq!(
        kept,
        ServiceError::Session(RemapError::UnknownDevice(DeviceId(2)))
    );
}

#[test]
fn all_error_types_coerce_to_error_trait_objects() {
    let errors: Vec<Box<dyn std::error::Error>> = vec![
        Box::new(MapperError::NanDelta { op: 1 }),
        Box::new(RemapError::WouldEmptyGraph),
        Box::new(ServiceError::Internal {
            site: "map",
            payload: "x".to_string(),
        }),
    ];
    for err in &errors {
        assert!(!err.to_string().is_empty());
    }
}

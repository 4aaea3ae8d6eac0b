//! Socket-free HTTP/1.1 request handling: parse a request target, route
//! it through [`ServiceCore`], and render a response.
//!
//! Everything here is pure string-in, string-out, so tier-1 tests can
//! drive the full daemon surface — routing, parameter parsing, error
//! mapping, JSON rendering — without opening a socket. The `std::net`
//! veneer in [`crate::shell`] only reads bytes, calls [`handle`], and
//! writes bytes back.

use crate::core::{PredictRequest, ServiceCore, ServiceError};
use prodpred_core::{LoadSource, PredictorConfig};
use prodpred_stochastic::MaxStrategy;

/// A rendered-to-be HTTP response: status line plus JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code (200, 400, 404, 429, 503).
    pub status: u16,
    /// Reason phrase matching `status`.
    pub reason: &'static str,
    /// Retry-After header value in seconds, when the error is
    /// transient (503 Unavailable, 429 Overloaded).
    pub retry_after: Option<u64>,
    /// JSON body.
    pub body: String,
}

/// Room for everything [`HttpResponse::render`] writes besides the reason
/// phrase and the body: 83 bytes of fixed text, 15 more for a
/// `Retry-After` line, and three numbers of at most 5 + 20 + 20 digits.
const WIRE_HEAD_MAX: usize = 160;

impl HttpResponse {
    fn ok(body: String) -> Self {
        Self {
            status: 200,
            reason: "OK",
            retry_after: None,
            body,
        }
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Self {
        Self {
            status,
            reason,
            retry_after: None,
            body: format!(
                "{{\"error\":{}}}",
                serde_json::to_string(message).expect("no float") // tidy:allow(PP003): only a non-finite float can fail to serialise, and a `str` holds none
            ),
        }
    }

    fn error_with_retry(
        status: u16,
        reason: &'static str,
        message: &str,
        retry_after_secs: u64,
    ) -> Self {
        Self {
            retry_after: Some(retry_after_secs),
            ..Self::error(status, reason, message)
        }
    }

    /// Renders the full HTTP/1.1 wire form (headers + body) into one
    /// allocation.
    pub fn render(&self) -> String {
        let mut wire = String::with_capacity(WIRE_HEAD_MAX + self.reason.len() + self.body.len());
        // Every answer the hit path gives has this status line.
        if (self.status, self.reason) == (200, "OK") {
            wire.push_str("HTTP/1.1 200 OK");
        } else {
            wire.push_str("HTTP/1.1 ");
            push_decimal(&mut wire, u64::from(self.status));
            wire.push(' ');
            wire.push_str(self.reason);
        }
        wire.push_str("\r\nContent-Type: application/json\r\nContent-Length: ");
        push_decimal(&mut wire, self.body.len() as u64);
        if let Some(secs) = self.retry_after {
            wire.push_str("\r\nRetry-After: ");
            push_decimal(&mut wire, secs);
        }
        wire.push_str("\r\nConnection: close\r\n\r\n");
        wire.push_str(&self.body);
        wire
    }
}

/// Appends `v` in decimal.
fn push_decimal(out: &mut String, mut v: u64) {
    // u64::MAX has twenty digits.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(buf[at..].iter().map(|&digit| char::from(digit)));
}

/// Splits a request target into `(path, query pairs)`. The pairs `Vec`
/// is sized once, for one pair more than the query has `&`s.
fn split_target(target: &str) -> (&str, Vec<(&str, &str)>) {
    match target.split_once('?') {
        None => (target, Vec::new()),
        Some((path, query)) => {
            let mut pairs = Vec::with_capacity(query.bytes().filter(|&b| b == b'&').count() + 1);
            pairs.extend(
                query
                    .split('&')
                    .filter(|p| !p.is_empty())
                    .map(|p| p.split_once('=').unwrap_or((p, ""))),
            );
            (path, pairs)
        }
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("parameter {key}={value} is not a valid number"))
}

/// Builds a [`PredictRequest`] from `/predict` query parameters.
///
/// Required: `platform`, `n`, `procs`. Optional (defaulting to
/// [`PredictorConfig::default`]): `iters`, `source`
/// (`inst`/`horizon`/`modal`), `staleness` (`0`/`1`), `max`
/// (`mean`/`upper`/`lower`/`clark`/`mc:<samples>:<seed>`), `cap`
/// (relative half-width cap, or `none`), `fault_intensity` (what-if
/// fault intensity in `[0, 1]`; omit for the healthy prediction).
///
/// # Errors
///
/// A human-readable message naming the offending parameter.
pub fn parse_predict(pairs: &[(&str, &str)]) -> Result<PredictRequest, String> {
    let mut platform: Option<u8> = None;
    let mut n: Option<usize> = None;
    let mut procs: Option<usize> = None;
    let mut fault_intensity: Option<f64> = None;
    let mut config = PredictorConfig::default();
    for &(key, value) in pairs {
        match key {
            "platform" => platform = Some(parse_num(key, value)?),
            "n" => n = Some(parse_num(key, value)?),
            "procs" => procs = Some(parse_num(key, value)?),
            "iters" => config.iterations = parse_num(key, value)?,
            "source" => {
                config.load_source = match value {
                    "inst" => LoadSource::Instantaneous,
                    "horizon" => LoadSource::RunHorizon,
                    "modal" => LoadSource::ModalAverage,
                    other => return Err(format!("unknown source {other:?} (inst/horizon/modal)")),
                }
            }
            "staleness" => {
                config.staleness_aware = match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("staleness={other} must be 0 or 1")),
                }
            }
            "max" => {
                config.max_strategy = match value {
                    "mean" => MaxStrategy::ByMean,
                    "upper" => MaxStrategy::ByUpperBound,
                    "lower" => MaxStrategy::ByLowerBound,
                    "clark" => MaxStrategy::Clark,
                    mc => {
                        let mut parts = mc.split(':');
                        match (parts.next(), parts.next(), parts.next(), parts.next()) {
                            (Some("mc"), Some(samples), Some(seed), None) => {
                                MaxStrategy::MonteCarlo {
                                    samples: parse_num("max samples", samples)?,
                                    seed: parse_num("max seed", seed)?,
                                }
                            }
                            _ => {
                                return Err(format!(
                                "unknown max {mc:?} (mean/upper/lower/clark/mc:<samples>:<seed>)"
                            ))
                            }
                        }
                    }
                }
            }
            "cap" => {
                config.max_load_rel_width = if value == "none" {
                    None
                } else {
                    Some(parse_num(key, value)?)
                }
            }
            // Range/finiteness checks live in `ServiceCore::validate`
            // (via `IntensityError::check`), which turns bad
            // values into typed 400s — never a panic.
            "fault_intensity" => fault_intensity = Some(parse_num(key, value)?),
            other => return Err(format!("unknown parameter {other:?}")),
        }
    }
    Ok(PredictRequest {
        platform: platform.ok_or("missing required parameter: platform")?,
        n: n.ok_or("missing required parameter: n")?,
        procs: procs.ok_or("missing required parameter: procs")?,
        config,
        fault_intensity,
    })
}

fn error_response(e: &ServiceError) -> HttpResponse {
    use prodpred_core::PredictorError;
    match e {
        ServiceError::BadRequest(_) => HttpResponse::error(400, "Bad Request", &e.to_string()),
        ServiceError::UnknownPlatform(_) => HttpResponse::error(404, "Not Found", &e.to_string()),
        ServiceError::NotReady { .. } => {
            HttpResponse::error(503, "Service Unavailable", &e.to_string())
        }
        // The degraded-mode state machine refused the query: the
        // snapshot is too old to answer from. Transient by definition —
        // advertise when the breaker cooldown (or next publish) is due.
        ServiceError::Unavailable {
            retry_after_secs, ..
        } => HttpResponse::error_with_retry(
            503,
            "Service Unavailable",
            &e.to_string(),
            *retry_after_secs,
        ),
        // Admission control shed a cache miss under overload; the miss
        // budget refills at the next ingest tick.
        ServiceError::Overloaded { retry_after_secs } => HttpResponse::error_with_retry(
            429,
            "Too Many Requests",
            &e.to_string(),
            *retry_after_secs,
        ),
        // A dry sensor is transient (more polls may fill it); structural
        // rejections are the client's fault.
        ServiceError::Predictor(PredictorError::NoData { .. }) => {
            HttpResponse::error(503, "Service Unavailable", &e.to_string())
        }
        ServiceError::Predictor(_) => HttpResponse::error(400, "Bad Request", &e.to_string()),
    }
}

fn to_json<T: serde::Serialize>(value: &T) -> HttpResponse {
    match serde_json::to_string(value) {
        Ok(body) => HttpResponse::ok(body),
        Err(e) => HttpResponse::error(500, "Internal Server Error", &e.to_string()),
    }
}

/// Routes one request target (e.g. `/predict?platform=2&n=1600&procs=4`)
/// through the core and renders the response. The daemon's entire
/// routing table lives here, socket-free.
pub fn handle(core: &ServiceCore, target: &str) -> HttpResponse {
    let (path, pairs) = split_target(target);
    match path {
        "/predict" => match parse_predict(&pairs) {
            Err(why) => HttpResponse::error(400, "Bad Request", &why),
            Ok(req) => match core.query(&req) {
                Ok(response) => to_json(&response),
                Err(e) => error_response(&e),
            },
        },
        // One read: a publish between two could pass the test on one
        // epoch and report another.
        "/health" => match core.epoch() {
            0 => HttpResponse::error(503, "Service Unavailable", "no snapshot published yet"),
            epoch => HttpResponse::ok(format!("{{\"status\":\"ok\",\"epoch\":{epoch}}}")),
        },
        "/metrics" => to_json(&core.stats()),
        _ => HttpResponse::error(404, "Not Found", &format!("no route for {path}")),
    }
}

/// Parses the request line of an HTTP/1.1 request head and returns the
/// target, rejecting anything but `GET`.
///
/// # Errors
///
/// A ready-to-send [`HttpResponse`] (400 or 405) describing the defect.
pub fn request_target(head: &str) -> Result<&str, HttpResponse> {
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("GET"), Some(target), Some(version)) if version.starts_with("HTTP/1.") => Ok(target),
        (Some("GET"), _, _) => Err(HttpResponse::error(
            400,
            "Bad Request",
            "malformed request line",
        )),
        (Some(method), _, _) => Err(HttpResponse::error(
            405,
            "Method Not Allowed",
            &format!("method {method} not supported (GET only)"),
        )),
        _ => Err(HttpResponse::error(400, "Bad Request", "empty request")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{ServiceConfig, ServiceCore};

    fn core() -> ServiceCore {
        ServiceCore::new(ServiceConfig {
            seed: 7,
            horizon: 2000.0,
            warmup: 300.0,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn predict_round_trips_through_json() {
        let core = core();
        let r = handle(&core, "/predict?platform=2&n=1600&procs=4");
        assert_eq!(r.status, 200, "{}", r.body);
        let parsed: crate::core::PredictResponse = serde_json::from_str(&r.body).unwrap();
        assert_eq!((parsed.platform, parsed.n, parsed.procs), (2, 1600, 4));
        assert!(parsed.mean > 0.0);
    }

    #[test]
    fn full_parameter_surface_parses() {
        let pairs = [
            ("platform", "1"),
            ("n", "600"),
            ("procs", "2"),
            ("iters", "40"),
            ("source", "modal"),
            ("staleness", "1"),
            ("max", "mc:500:9"),
            ("cap", "0.25"),
            ("fault_intensity", "0.5"),
        ];
        let req = parse_predict(&pairs).unwrap();
        assert_eq!((req.platform, req.n, req.procs), (1, 600, 2));
        assert_eq!(req.fault_intensity, Some(0.5));
        assert_eq!(req.config.iterations, 40);
        assert_eq!(req.config.load_source, LoadSource::ModalAverage);
        assert!(req.config.staleness_aware);
        assert_eq!(
            req.config.max_strategy,
            MaxStrategy::MonteCarlo {
                samples: 500,
                seed: 9
            }
        );
        assert_eq!(req.config.max_load_rel_width, Some(0.25));
    }

    #[test]
    fn errors_map_to_http_statuses() {
        let core = core();
        assert_eq!(handle(&core, "/predict?platform=1&n=600").status, 400);
        // f64::from_str accepts these; validation must still reject them.
        for cap in ["NaN", "inf", "-1", "0"] {
            assert_eq!(
                handle(
                    &core,
                    &format!("/predict?platform=1&n=600&procs=2&cap={cap}")
                )
                .status,
                400,
                "cap={cap} must not reach the model"
            );
        }
        assert_eq!(
            handle(
                &core,
                "/predict?platform=1&n=600&procs=2&max=mc:9999999999:1"
            )
            .status,
            400
        );
        assert_eq!(
            handle(&core, "/predict?platform=9&n=600&procs=2").status,
            404
        );
        assert_eq!(
            handle(&core, "/predict?platform=1&n=600&procs=2&source=x").status,
            400
        );
        // f64::from_str accepts NaN/inf and negatives; validation turns
        // every one into a typed 400, never a panic in the daemon.
        for bad in ["NaN", "inf", "-inf", "-0.1", "1.01", "x"] {
            let target = format!("/predict?platform=1&n=600&procs=2&fault_intensity={bad}");
            assert_eq!(
                handle(&core, &target).status,
                400,
                "fault_intensity={bad} must not reach the model"
            );
        }
        assert_eq!(handle(&core, "/nope").status, 404);
        assert_eq!(handle(&core, "/health").status, 200);
        assert_eq!(handle(&core, "/metrics").status, 200);
    }

    #[test]
    fn faulted_predict_round_trips_and_degrades() {
        let core = core();
        let healthy = handle(&core, "/predict?platform=2&n=1600&procs=4");
        assert_eq!(healthy.status, 200, "{}", healthy.body);
        let healthy: crate::core::PredictResponse = serde_json::from_str(&healthy.body).unwrap();
        assert_eq!(healthy.fault_intensity, None);
        let faulted = handle(
            &core,
            "/predict?platform=2&n=1600&procs=4&fault_intensity=0.5",
        );
        assert_eq!(faulted.status, 200, "{}", faulted.body);
        let faulted: crate::core::PredictResponse = serde_json::from_str(&faulted.body).unwrap();
        assert_eq!(faulted.fault_intensity, Some(0.5));
        assert!(
            faulted.mean > healthy.mean,
            "degraded mean {} must exceed healthy {}",
            faulted.mean,
            healthy.mean
        );
    }

    #[test]
    fn request_line_parsing() {
        assert_eq!(
            request_target("GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap(),
            "/health"
        );
        assert_eq!(
            request_target("POST /health HTTP/1.1").unwrap_err().status,
            405
        );
        assert_eq!(request_target("").unwrap_err().status, 400);
        assert_eq!(request_target("GET /health").unwrap_err().status, 400);
    }

    #[test]
    fn render_carries_content_length() {
        let r = HttpResponse::ok("{\"a\":1}".to_string());
        let wire = r.render();
        assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(wire.contains("Content-Length: 7\r\n"));
        assert!(wire.ends_with("\r\n\r\n{\"a\":1}"));
    }

    #[test]
    fn render_carries_retry_after_when_set() {
        let r = HttpResponse::error_with_retry(503, "Service Unavailable", "stale", 42);
        let wire = r.render();
        assert!(wire.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(wire.contains("\r\nRetry-After: 42\r\n"), "{wire}");
        // And the header is absent when no hint applies.
        assert!(!HttpResponse::ok("{}".into())
            .render()
            .contains("Retry-After"));
    }

    #[test]
    fn render_bytes_are_pinned() {
        assert_eq!(
            HttpResponse::ok("{\"a\":1}".to_string()).render(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\
             Connection: close\r\n\r\n{\"a\":1}"
        );
        assert_eq!(
            HttpResponse::error_with_retry(429, "Too Many Requests", "shed", 3).render(),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: 16\r\nRetry-After: 3\r\nConnection: close\r\n\r\n\
             {\"error\":\"shed\"}"
        );
        assert_eq!(
            HttpResponse::error(503, "Service Unavailable", "a \"b\"\n").render(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 21\r\nConnection: close\r\n\r\n{\"error\":\"a \\\"b\\\"\\n\"}"
        );
        // The widest head still fits the one allocation `render` makes.
        let widest = HttpResponse {
            status: u16::MAX,
            reason: "",
            retry_after: Some(u64::MAX),
            body: String::new(),
        };
        assert!(widest.render().len() <= WIRE_HEAD_MAX);
    }

    /// A core whose ingest fails every post-warmup tick (permanent
    /// blackout) under a fresh-only serving policy — two ticks in, every
    /// query must map to 503 + Retry-After.
    fn blacked_out_core(resilience: crate::resilience::ResilienceConfig) -> ServiceCore {
        let mut fault = prodpred_simgrid::faults::FaultConfig::none(7);
        fault.blackouts.push((300.0, f64::MAX));
        ServiceCore::new(ServiceConfig {
            seed: 7,
            horizon: 1e7,
            warmup: 300.0,
            fault: Some(fault),
            resilience,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn unavailable_maps_to_503_with_retry_after() {
        let core = blacked_out_core(crate::resilience::ResilienceConfig::unsupervised());
        core.ingest_tick();
        core.ingest_tick();
        let r = handle(&core, "/predict?platform=1&n=600&procs=2");
        assert_eq!(r.status, 503, "{}", r.body);
        assert!(r.retry_after.is_some_and(|s| s >= 1), "{r:?}");
        assert!(r.body.contains("unavailable"), "{}", r.body);
    }

    #[test]
    fn degraded_predict_is_marked_on_the_wire() {
        // Failing ingest, but thresholds wide enough to keep serving.
        let core = blacked_out_core(crate::resilience::ResilienceConfig {
            retry: prodpred_core::supervisor::RetryPolicy::none(),
            breaker_threshold: u32::MAX,
            watchdog_ticks: u64::MAX,
            ..crate::resilience::ResilienceConfig::default()
        });
        core.ingest_tick();
        core.ingest_tick();
        let r = handle(&core, "/predict?platform=1&n=600&procs=2");
        assert_eq!(r.status, 200, "{}", r.body);
        let parsed: crate::core::PredictResponse = serde_json::from_str(&r.body).unwrap();
        assert!(parsed.degraded);
        assert_eq!(parsed.serving, crate::resilience::ServingState::Degraded);
        assert_eq!(parsed.snapshot_age_ticks, 2);
    }

    #[test]
    fn overloaded_maps_to_429_with_retry_after() {
        let core = ServiceCore::new(ServiceConfig {
            seed: 7,
            horizon: 2000.0,
            warmup: 300.0,
            resilience: crate::resilience::ResilienceConfig {
                admission: crate::resilience::AdmissionConfig {
                    miss_tokens_per_tick: 1,
                },
                ..crate::resilience::ResilienceConfig::default()
            },
            ..ServiceConfig::default()
        });
        assert_eq!(
            handle(&core, "/predict?platform=1&n=600&procs=2").status,
            200
        );
        let shed = handle(&core, "/predict?platform=1&n=800&procs=2");
        assert_eq!(shed.status, 429, "{}", shed.body);
        assert!(shed.retry_after.is_some_and(|s| s >= 1));
        // The hit is still admitted with the budget exhausted.
        assert_eq!(
            handle(&core, "/predict?platform=1&n=600&procs=2").status,
            200
        );
    }

    #[test]
    fn metrics_expose_resilience_counters_end_to_end() {
        let core = blacked_out_core(crate::resilience::ResilienceConfig {
            retry: prodpred_core::supervisor::RetryPolicy::none(),
            breaker_threshold: u32::MAX,
            watchdog_ticks: u64::MAX,
            ..crate::resilience::ResilienceConfig::default()
        });
        core.ingest_tick();
        core.ingest_tick();
        assert_eq!(
            handle(&core, "/predict?platform=1&n=600&procs=2").status,
            200
        );
        let r = handle(&core, "/metrics");
        assert_eq!(r.status, 200);
        let stats: crate::core::ServiceStats = serde_json::from_str(&r.body).unwrap();
        assert_eq!(stats.ingest.failures, 4, "2 ticks x 2 platforms");
        assert_eq!(stats.degraded_served, 1);
        assert_eq!(
            stats.serving_platform1,
            crate::resilience::ServingState::Degraded
        );
        assert_eq!(
            stats.serving_platform2,
            crate::resilience::ServingState::Degraded
        );
        // The raw JSON names the counters for scrape-side consumers.
        for key in [
            "\"shed\"",
            "\"degraded_served\"",
            "\"ingest\"",
            "\"serving_platform1\"",
            "\"unavailable\"",
        ] {
            assert!(r.body.contains(key), "missing {key} in {}", r.body);
        }
    }

    #[test]
    fn json_error_bodies_escape_quotes() {
        let core = core();
        let r = handle(&core, "/predict?platform=1&n=600&procs=2&source=bad");
        assert_eq!(r.status, 400);
        assert!(r.body.contains("\\\"bad\\\""), "{}", r.body);
        #[derive(serde::Deserialize)]
        struct ErrBody {
            error: String,
        }
        let parsed: ErrBody = serde_json::from_str(&r.body).unwrap();
        assert!(parsed.error.contains("\"bad\""));
    }
}

//! Live telemetry endpoint: a std-only, read-only HTTP/1.1 server.
//!
//! [`serve_http`] binds a blocking [`TcpListener`] on its own thread (the
//! one long-lived thread the workspace allows outside `wr-runtime`'s
//! pool — an accept loop cannot run as a bounded pool job, and obs sits
//! *below* the runtime in the dependency order) and answers four GET
//! routes from the owning [`Telemetry`]:
//!
//! | route            | payload                                         |
//! |------------------|-------------------------------------------------|
//! | `/metrics`       | `wr-obs/v1` registry snapshot JSON              |
//! | `/traces/recent` | last 256 trace events (`wr-trace-recent/v1`)    |
//! | `/flight`        | flight-recorder ring (`wr-flight/v1` lines)     |
//! | `/health`        | `{"status":"ok"}` liveness probe                |
//!
//! The server is strictly **read-only**: it snapshots, it never mutates,
//! and it runs entirely off the serving hot path — scraping concurrently
//! with a replay cannot change a single served bit. Responses close the
//! connection (`Connection: close`) so the handler loop stays a simple
//! accept → answer → drop cycle with no keep-alive state.
//!
//! [`http_get`] is the matching std-only scrape client, used by the
//! check.sh smoke (via the bench binaries' `--obs-*` flags) and by tests.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::Telemetry;

/// Events returned by `/traces/recent`.
const RECENT_TRACE_LIMIT: usize = 256;

/// Handle to a running telemetry endpoint; dropping it stops the accept
/// loop and joins the thread.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer").field("addr", &self.addr).finish()
    }
}

impl ObsServer {
    /// The bound address — with port 0 in the bind string, this is where
    /// the kernel actually put us (print it for scrapers).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Start the read-only telemetry endpoint on `addr` (e.g.
/// `"127.0.0.1:0"` for an ephemeral port). The returned handle owns the
/// listener thread; the `Telemetry` is cloned (its parts are `Arc`s) so
/// the endpoint observes the live registry/tracer/flight state.
#[expect(
    clippy::disallowed_methods,
    reason = "the accept loop outlives any bounded pool dispatch and only reads snapshots"
)]
pub fn serve_http(addr: &str, telemetry: &Telemetry) -> std::io::Result<ObsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let tel = telemetry.clone();
    let handle = std::thread::Builder::new()
        .name("wr-obs-http".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = conn else { continue };
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let _ = handle_conn(&mut stream, &tel);
            }
        })?;
    Ok(ObsServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

fn handle_conn(stream: &mut TcpStream, tel: &Telemetry) -> std::io::Result<()> {
    // One read is enough for a GET request line; we only route on it.
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf)?;
    let head = String::from_utf8_lossy(&buf[..n]);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = route(path, tel);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

fn route(path: &str, tel: &Telemetry) -> (&'static str, &'static str, String) {
    match path {
        "/metrics" => ("200 OK", "application/json", tel.registry.to_json()),
        "/traces/recent" => (
            "200 OK",
            "application/json",
            tel.tracer.recent_json(RECENT_TRACE_LIMIT),
        ),
        "/flight" => (
            "200 OK",
            "application/x-ndjson",
            tel.flight.snapshot_json("live"),
        ),
        "/health" => ("200 OK", "application/json", "{\"status\":\"ok\"}".to_string()),
        _ => (
            "404 Not Found",
            "application/json",
            "{\"error\":\"unknown route\"}".to_string(),
        ),
    }
}

/// Std-only scrape client: `GET path` against `addr`, returning the
/// response body. Fails on non-200 statuses.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
    })?;
    let status_ok = head
        .lines()
        .next()
        .is_some_and(|line| line.contains(" 200 "));
    if !status_ok {
        return Err(std::io::Error::new(
            std::io::ErrorKind::Other,
            format!("non-200 response for {path}: {}", head.lines().next().unwrap_or("")),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContext;

    #[test]
    fn endpoint_serves_all_routes_and_shuts_down() {
        let tel = Telemetry::new();
        tel.registry.counter("gateway.requests").add(3);
        let ctx = TraceContext::root(1, 0);
        tel.tracer.span_ctx("batch", "gateway", ctx).end();
        tel.flight.note("degraded", "gateway.shard0", ctx, 1, 0, 0);

        let server = serve_http("127.0.0.1:0", &tel).expect("bind ephemeral");
        let addr = server.addr().to_string();

        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(metrics.contains("\"format\":\"wr-obs/v1\""));
        assert!(metrics.contains("\"gateway.requests\":3"));

        let traces = http_get(&addr, "/traces/recent").unwrap();
        assert!(traces.contains("wr-trace-recent/v1"));
        assert!(traces.contains(&format!("{:016x}", ctx.trace_id)));

        let flight = http_get(&addr, "/flight").unwrap();
        assert!(flight.contains("\"format\":\"wr-flight/v1\""));
        assert!(flight.contains("\"kind\":\"degraded\""));

        let health = http_get(&addr, "/health").unwrap();
        assert_eq!(health, "{\"status\":\"ok\"}");

        let err = http_get(&addr, "/nope").expect_err("404 must error");
        assert_eq!(err.kind(), std::io::ErrorKind::Other);

        drop(server);
        // Once the handle is dropped the port no longer answers.
        assert!(http_get(&addr, "/health").is_err());
    }

    #[test]
    fn scrapes_observe_live_state() {
        let tel = Telemetry::new();
        let server = serve_http("127.0.0.1:0", &tel).unwrap();
        let addr = server.addr().to_string();
        assert!(!http_get(&addr, "/metrics").unwrap().contains("\"late.counter\""));
        tel.registry.counter("late.counter").inc();
        assert!(http_get(&addr, "/metrics").unwrap().contains("\"late.counter\":1"));
    }
}

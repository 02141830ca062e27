//! Driving the service over its HTTP API: start/stop an in-process
//! `Service` + `Server`, and observe jobs by polling their status at a
//! short fixed interval (never `Client::wait_report`, whose 100 ms
//! sleeps would be measured as latency).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use synts_core::scenario::Json;
use synts_serve::{Client, RetryPolicy, Server, Service, ServiceConfig, ServiceStats, Shutdown};

use crate::trace::Tracer;
use crate::util::{since, VcpuTicks};

/// Interval between status-poll rounds. A completion is seen at most
/// this late (plus one round of requests).
pub const POLL: Duration = Duration::from_millis(10);

/// An in-process service behind a loopback HTTP server.
pub struct Svc {
    service: Arc<Service>,
    server: Option<Server>,
    pub addr: String,
    reaper: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl Svc {
    /// Starts the service and server; `tick` paces a fleet reaper thread
    /// (as `synts-serve --tick-ms` does).
    pub fn start(cfg: ServiceConfig, tick: Option<Duration>) -> Result<Svc, String> {
        let service = Arc::new(Service::start(cfg));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service))
            .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
        let addr = server.addr().to_string();
        let reaper = tick.map(|interval| {
            let stop = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&stop);
            let svc = Arc::clone(&service);
            let handle = std::thread::spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    let _ = svc.fleet_tick();
                }
            });
            (stop, handle)
        });
        Ok(Svc {
            service,
            server: Some(server),
            addr,
            reaper,
        })
    }

    pub fn client(&self) -> Client {
        Client::new(self.addr.clone()).with_policy(RetryPolicy::none())
    }

    /// Polls `/v1/healthz` every millisecond until it answers 200.
    pub fn wait_healthy(&self, timeout: Duration) -> Result<(), String> {
        let client = self.client();
        let t0 = Instant::now();
        while !client.healthy() {
            if t0.elapsed() > timeout {
                return Err("service never became healthy".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some((stop, handle)) = self.reaper.take() {
            stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
        if let Some(mut server) = self.server.take() {
            server.shutdown(Shutdown::Now);
        }
    }
}

impl Drop for Svc {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the client saw of one job. Times are seconds from the pass's
/// start instant.
#[derive(Debug, Clone, Default)]
pub struct JobObs {
    /// Index of the spec in the mix.
    pub spec: usize,
    /// Op id (unique within a run).
    pub op: u64,
    /// When the op was due to be sent (open loop schedule).
    pub due: f64,
    pub submitted: f64,
    /// First status that was no longer `queued`.
    pub left_queue: Option<f64>,
    /// First status in state `running`.
    pub running: Option<f64>,
    /// First status with a shard running or done.
    pub shard_started: Option<f64>,
    /// The report fetched and compared.
    pub fetched: f64,
    pub ok: bool,
    pub error: Option<String>,
    pub polls: u32,
    pub useful_polls: u32,
    pub submit_s: f64,
    pub last_status_s: f64,
    pub fetch_s: f64,
    /// Share of the job's wall time, submit to fetch, that the
    /// hypervisor stole; taken out of its latency.
    pub stolen_share: f64,
    ticks: VcpuTicks,
    id: String,
    last_state: String,
    last_running: usize,
}

impl JobObs {
    pub fn latency(&self) -> f64 {
        (self.fetched - self.due) * (1.0 - self.stolen_share)
    }
}

/// Submits one spec (timed); the job is then tracked by [`poll_round`].
pub fn submit(
    client: &Client,
    tracer: &Tracer,
    t0: Instant,
    spec: usize,
    op: u64,
    due: f64,
    spec_json: &str,
) -> JobObs {
    let ticks = VcpuTicks::now();
    let sent = since(t0);
    let result = tracer.span("serve.http.submit", op, || client.submit(spec_json));
    let submitted = since(t0);
    let mut obs = JobObs {
        spec,
        op,
        due,
        submitted,
        submit_s: submitted - sent,
        ticks,
        ..JobObs::default()
    };
    match result {
        Ok(id) => obs.id = id,
        Err(e) => {
            obs.error = Some(format!("submit: {e}"));
            obs.fetched = submitted;
        }
    }
    obs
}

/// One status request per tracked job. Finished jobs (report fetched
/// and compared against `refs`, or failed) are moved to `done`.
pub fn poll_round(
    client: &Client,
    tracer: &Tracer,
    t0: Instant,
    tracked: &mut Vec<JobObs>,
    done: &mut Vec<JobObs>,
    refs: Option<&[String]>,
) {
    let mut i = 0;
    while i < tracked.len() {
        let finished = poll_one(client, tracer, t0, &mut tracked[i], refs);
        if finished {
            done.push(tracked.swap_remove(i));
        } else {
            i += 1;
        }
    }
}

fn poll_one(
    client: &Client,
    tracer: &Tracer,
    t0: Instant,
    obs: &mut JobObs,
    refs: Option<&[String]>,
) -> bool {
    if obs.error.is_some() {
        return true;
    }
    let start = since(t0);
    let status = tracer.span("serve.http.status", obs.op, || client.status(&obs.id));
    let now = since(t0);
    obs.polls += 1;
    obs.last_status_s = now - start;
    let status = match status {
        Ok(s) => s,
        Err(e) => {
            obs.error = Some(format!("status: {e}"));
            obs.fetched = now;
            return true;
        }
    };
    let state = status
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let shards = |k: &str| {
        status
            .get("shards")
            .and_then(|s| s.get(k))
            .and_then(Json::as_usize)
            .unwrap_or(0)
    };
    let running_shards = shards("running") + shards("done");
    if state != obs.last_state || running_shards != obs.last_running {
        obs.useful_polls += 1;
    }
    obs.last_state.clone_from(&state);
    obs.last_running = running_shards;
    if state != "queued" && obs.left_queue.is_none() {
        obs.left_queue = Some(now);
    }
    if (state == "running" || state == "done") && obs.running.is_none() {
        obs.running = Some(now);
    }
    if running_shards > 0 && obs.shard_started.is_none() {
        obs.shard_started = Some(now);
    }
    match state.as_str() {
        "done" => {
            let start = since(t0);
            let reply = tracer.span("serve.http.fetch", obs.op, || {
                client.fetch_report(&obs.id, false)
            });
            obs.fetched = since(t0);
            obs.fetch_s = obs.fetched - start;
            obs.stolen_share = obs.ticks.stolen_share_since();
            match reply {
                Ok(r) if r.status == 200 => {
                    obs.ok = refs
                        .is_none_or(|refs| refs.get(obs.spec).is_some_and(|want| *want == r.body));
                    if !obs.ok {
                        obs.error = Some("report bytes differ from the monolithic run".into());
                    }
                }
                Ok(r) => obs.error = Some(format!("fetch: HTTP {}", r.status)),
                Err(e) => obs.error = Some(format!("fetch: {e}")),
            }
            true
        }
        "failed" | "cancelled" => {
            obs.fetched = now;
            obs.error = Some(format!(
                "job {state}: {}",
                status.get("error").and_then(Json::as_str).unwrap_or("")
            ));
            true
        }
        _ => false,
    }
}

/// Runs jobs one at a time (closed loop, one client): submit, poll every
/// [`POLL`], fetch.
pub fn closed_loop(
    client: &Client,
    tracer: &Tracer,
    t0: Instant,
    jobs: &[(usize, u64, String)],
    refs: Option<&[String]>,
) -> Vec<JobObs> {
    let mut done = Vec::new();
    for (spec, op, json) in jobs {
        let now = since(t0);
        let mut tracked = vec![submit(client, tracer, t0, *spec, *op, now, json)];
        while !tracked.is_empty() {
            std::thread::sleep(POLL);
            poll_round(client, tracer, t0, &mut tracked, &mut done, refs);
        }
    }
    done
}

/// Sends jobs on a fixed schedule (open loop at `rate` jobs/s) from this
/// thread while a second thread polls every in-flight job. Returns the
/// observations (once every job has finished) and how late the
/// generator sent, at worst.
pub fn open_loop(
    client: &Client,
    tracer: &Tracer,
    t0: Instant,
    jobs: &[(usize, u64, String)],
    rate: f64,
    refs: Option<&[String]>,
) -> (Vec<JobObs>, f64) {
    let tracked: Mutex<Vec<JobObs>> = Mutex::new(Vec::new());
    let sending = AtomicBool::new(true);
    let start = since(t0);
    let mut worst_late: f64 = 0.0;
    let done = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut done = Vec::new();
            loop {
                let mut batch = std::mem::take(
                    &mut *tracked
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                );
                let idle = batch.is_empty();
                poll_round(client, tracer, t0, &mut batch, &mut done, refs);
                tracked
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend(batch);
                if idle && !sending.load(Ordering::SeqCst) {
                    let empty = tracked
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .is_empty();
                    if empty {
                        break;
                    }
                }
                std::thread::sleep(POLL);
            }
            done
        });
        for (k, (spec, op, json)) in jobs.iter().enumerate() {
            let due = start + k as f64 / rate;
            let wait = due - since(t0);
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            worst_late = worst_late.max(since(t0) - due);
            let obs = submit(client, tracer, t0, *spec, *op, due, json);
            tracked
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(obs);
        }
        sending.store(false, Ordering::SeqCst);
        poller.join().unwrap_or_default()
    });
    (done, worst_late)
}

//! Timing wrappers the benchmark puts around the program's public traits.
//!
//! They measure a layer from outside: a [`TimedSink`] times every call
//! into the [`MailSink`] it wraps, a [`TimedStorage`] every call into the
//! spool's [`Storage`]. Disarmed (the untraced runs) they read no clock
//! and only forward, so the same stack serves both kinds of run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use zmail_smtp::{MailMessage, MailSink, SinkError};
use zmail_store::{MemStorage, Storage};

/// Call count and total busy time of one wrapped entry point.
#[derive(Debug, Default)]
pub struct Probe {
    armed: AtomicBool,
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// A [`Probe`] reading: calls and summed microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeReading {
    pub calls: u64,
    pub total_us: f64,
}

impl ProbeReading {
    /// Mean microseconds per call; `0.0` with no calls.
    pub fn mean_us(self) -> f64 {
        crate::stats::ratio(self.total_us, self.calls as f64)
    }
}

impl Probe {
    pub fn arm(&self, armed: bool) {
        self.armed.store(armed, Ordering::Relaxed);
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.armed.load(Ordering::Relaxed) {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Reads and zeroes the probe.
    pub fn take(&self) -> ProbeReading {
        ProbeReading {
            calls: self.calls.swap(0, Ordering::Relaxed),
            total_us: self.nanos.swap(0, Ordering::Relaxed) as f64 / 1_000.0,
        }
    }
}

/// Probes for one [`TimedSink`].
#[derive(Debug, Default)]
pub struct SinkProbes {
    pub deliver: Probe,
    pub rcpt: Probe,
}

impl SinkProbes {
    pub fn arm(&self, armed: bool) {
        self.deliver.arm(armed);
        self.rcpt.arm(armed);
    }
}

/// A [`MailSink`] decorator timing `deliver` and `accept_recipient`.
#[derive(Debug, Clone)]
pub struct TimedSink<S> {
    inner: S,
    probes: Arc<SinkProbes>,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S, probes: Arc<SinkProbes>) -> Self {
        TimedSink { inner, probes }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: MailSink> MailSink for TimedSink<S> {
    fn accept_recipient(&self, from: &str, to: &str) -> bool {
        self.probes
            .rcpt
            .time(|| self.inner.accept_recipient(from, to))
    }

    fn deliver(&self, message: MailMessage) -> Result<(), SinkError> {
        self.probes.deliver.time(|| self.inner.deliver(message))
    }
}

/// Probes for one [`TimedStorage`].
#[derive(Debug, Default)]
pub struct StorageProbes {
    pub append: Probe,
    pub sync: Probe,
}

impl StorageProbes {
    pub fn arm(&self, armed: bool) {
        self.append.arm(armed);
        self.sync.arm(armed);
    }
}

/// A [`Storage`] over a shared [`MemStorage`], timing appends and syncs.
/// The benchmark keeps a clone of `blobs` to read the spool back after
/// the run.
#[derive(Debug, Clone)]
pub struct TimedStorage {
    blobs: Arc<Mutex<MemStorage>>,
    probes: Arc<StorageProbes>,
}

impl TimedStorage {
    pub fn new(blobs: Arc<Mutex<MemStorage>>, probes: Arc<StorageProbes>) -> Self {
        TimedStorage { blobs, probes }
    }

    fn blobs(&self) -> std::sync::MutexGuard<'_, MemStorage> {
        self.blobs.lock().expect("spool storage lock")
    }
}

impl Storage for TimedStorage {
    fn read(&self, name: &str) -> Vec<u8> {
        self.blobs().read(name)
    }

    fn write(&mut self, name: &str, bytes: &[u8]) {
        self.blobs().write(name, bytes);
    }

    fn append(&mut self, name: &str, bytes: &[u8]) {
        let probes = Arc::clone(&self.probes);
        probes.append.time(|| self.blobs().append(name, bytes));
    }

    fn sync(&mut self, name: &str) {
        let probes = Arc::clone(&self.probes);
        probes.sync.time(|| self.blobs().sync(name));
    }

    fn len(&self, name: &str) -> u64 {
        self.blobs().len(name)
    }

    fn truncate(&mut self, name: &str, len: u64) {
        self.blobs().truncate(name, len);
    }
}

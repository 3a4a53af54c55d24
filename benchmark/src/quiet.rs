//! Telling quiet moments of the host from slow ones.
//!
//! The reference host gives the benchmark two vCPUs of a shared machine.  Each
//! of them, independently of the other, spends anything from a tenth to nine
//! tenths of its time in a *slow state* that lasts 0.2 s to minutes: the
//! hardware thread next to it is busy with somebody else's work, and the
//! monitor's code runs 1.5–1.9x slower.  A statistic over everything measured
//! says how much of the run the slow state covered, not how fast the code is.
//!
//! The state is easy to read: a 2 µs arithmetic kernel that keeps the core's
//! ports busy takes 1.7–2.3x as long in it and 1.0–1.2x out of it, with
//! nothing in between (one dependent multiply chain does not slow at all, so
//! it is contention, not clock speed), and kernel and monitor slow down and
//! recover together.  So between operations, every couple of milliseconds,
//! [`Host::settle`] takes a *reading* — the kernel, timed.  Every timed
//! operation remembers the reading before it and gets its [`State`] from that
//! one and the next; `report::quiet_run` builds its statistics from them.
//! Nothing here changes how an operation is timed: readings are taken outside
//! every timed call.
//!
//! The loop is one thread, and [`Host::watched`] pins repetition `r` to the
//! `r`-th CPU of its affinity mask, round robin: a reading says something
//! about the operations around it only while the thread stays on one CPU, and
//! one CPU is often quiet while the other is slow, so each stretch of the loop
//! gets measured where it is quiet more often.

use std::time::{Duration, Instant};

/// A reading above this multiple of the fastest pass of the run is slow.
const SLOW: f64 = 1.4;
/// `settle` takes a reading at most this often: 12 µs in 2 ms.
const EVERY: Duration = Duration::from_millis(2);

#[cfg(target_os = "linux")]
mod affinity {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    const WORDS: usize = 16;

    /// The CPUs this thread may run on.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: the buffer is `WORDS * 8` bytes, the size passed.
        if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Restricts this thread to `cpus`.  A refusal leaves it where it may
    /// run anyway.
    pub fn set(cpus: &[usize]) {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: as above; the kernel only reads the mask.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_cpus: &[usize]) {}
}

/// What the host was doing around one timed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// The readings before and after it were both quiet.
    Quiet,
    /// Both were slow.
    Slow,
    /// One of each: the state changed somewhere near it.
    Mixed,
}

/// The measuring thread's place on the host for one repetition, and the
/// readings it took there.
pub struct Host {
    /// False for a thread that is left where it is and never read.
    watched: bool,
    /// The thread's affinity mask at the start.
    cpus: Vec<usize>,
    last_reading: Instant,
    buffer: [u64; 1024],
    /// Kernel time of every reading, in ns.
    readings: Vec<f64>,
    /// The fastest pass so far.
    base_ns: f64,
}

impl Host {
    fn new(watched: bool) -> Host {
        Host {
            watched,
            cpus: affinity::allowed(),
            last_reading: Instant::now(),
            buffer: [7; 1024],
            readings: Vec::new(),
            base_ns: f64::INFINITY,
        }
    }

    /// Pins the thread to the CPU repetition `r` runs on and starts taking
    /// readings, after 10 ms spent looking for the fastest pass: a run of
    /// few, long operations takes too few readings to be sure of meeting one
    /// on a busy host.
    pub fn watched(r: usize) -> Host {
        let mut host = Host::new(true);
        if host.cpus.len() > 1 {
            affinity::set(&[host.cpus[r % host.cpus.len()]]);
        }
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(10) {
            host.base_ns = host.base_ns.min(host.kernel_ns());
        }
        host.close();
        host
    }

    /// A thread left alone, as are the threads it spawns: no readings, and
    /// every operation counts as quiet.
    pub fn unwatched() -> Host {
        Host::new(false)
    }

    /// One pass of the kernel: four independent integer chains over an 8 KiB
    /// buffer.
    #[inline(never)]
    fn kernel_ns(&mut self) -> f64 {
        let started = Instant::now();
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for _ in 0..8 {
            for chunk in self.buffer.chunks_exact_mut(4) {
                a = a.wrapping_mul(31).wrapping_add(chunk[0]);
                b = b.wrapping_mul(33) ^ chunk[1];
                c = c.wrapping_add(chunk[2] >> 3);
                d = d.rotate_left(5).wrapping_add(chunk[3]);
                chunk[0] = d;
                chunk[2] = a;
            }
        }
        std::hint::black_box(a ^ b ^ c ^ d);
        started.elapsed().as_nanos() as f64
    }

    /// Takes a reading now — the median of five passes after one that
    /// refills the buffer's cache lines — so that the operations before it
    /// have one after them however long the thread goes on to do something
    /// untimed.
    pub fn close(&mut self) {
        if !self.watched {
            return;
        }
        self.kernel_ns();
        let mut passes: [f64; 5] = std::array::from_fn(|_| self.kernel_ns());
        passes.sort_by(f64::total_cmp);
        self.base_ns = self.base_ns.min(passes[0]);
        self.readings.push(passes[2]);
        self.last_reading = Instant::now();
    }

    /// Call before a timed operation; returns the index of the reading the
    /// operation starts under.  Cheap unless [`EVERY`] has passed since the
    /// last reading.
    pub fn settle(&mut self) -> usize {
        if self.last_reading.elapsed() >= EVERY {
            self.close();
        }
        self.readings.len().saturating_sub(1)
    }

    /// Gives the thread its whole affinity mask back and hands the readings
    /// over.
    pub fn release(mut self) -> Readings {
        self.close();
        if self.watched && self.cpus.len() > 1 {
            affinity::set(&self.cpus);
        }
        Readings {
            ns: self.readings,
            fastest_ns: self.base_ns,
        }
    }
}

/// The readings of one repetition.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Readings {
    /// Kernel time of every reading, in ns.
    pub ns: Vec<f64>,
    /// The fastest single pass seen (infinite where none was taken).
    pub fastest_ns: f64,
}

impl Readings {
    fn slow(&self, i: usize, fastest_ns: f64) -> bool {
        self.ns.get(i).is_some_and(|&ns| ns > fastest_ns * SLOW)
    }

    /// The state around an operation that started under reading `i`, judged
    /// against the fastest pass of the whole run (`Quiet` where no readings
    /// were taken).
    pub fn state_after(&self, i: usize, fastest_ns: f64) -> State {
        match (self.slow(i, fastest_ns), self.slow(i + 1, fastest_ns)) {
            (false, false) => State::Quiet,
            (true, true) => State::Slow,
            _ => State::Mixed,
        }
    }

    /// How many readings were slow.
    pub fn slow_count(&self, fastest_ns: f64) -> usize {
        (0..self.ns.len())
            .filter(|&i| self.slow(i, fastest_ns))
            .count()
    }
}

//! # comet-par — deterministic data parallelism
//!
//! A small rayon-style fan-out built on `std::thread::scope` (the build
//! environment is offline, so rayon itself is unavailable). Design goals,
//! in priority order:
//!
//! 1. **Determinism**: [`par_map`] returns results in input order, so a
//!    caller that derives any randomness *before* fanning out produces
//!    bit-identical output at any thread count.
//! 2. **Bounded threads**: a global worker-slot budget caps the *total*
//!    number of live workers across nested fan-outs at the configured
//!    thread count (an inner `par_map` inside a worker degrades to
//!    sequential when no slots are free, instead of oversubscribing).
//! 3. **No external dependencies**: plain `std`, plus the equally
//!    dependency-free `comet-obs` for worker-slot utilization metrics
//!    (`par.*` counters/gauges, recorded only while metrics are enabled).
//!
//! Thread-count resolution, highest priority first:
//!
//! 1. a scoped override installed by [`with_threads`] (inherited by
//!    workers for the duration of their fan-out),
//! 2. a process-wide override set by [`set_global_threads`] (CLI
//!    `--threads` flags),
//! 3. the `COMET_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Unset sentinel for the global override.
const UNSET: usize = usize::MAX;

/// Process-wide thread-count override (0 or UNSET = unset).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(UNSET);

/// Workers currently spawned by every in-flight [`par_map`] in the
/// process; bounds nested fan-out.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped override installed by [`with_threads`] / worker inheritance.
    static LOCAL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Set (or with `None` clear) the process-wide thread-count override.
/// `Some(1)` forces every subsequent [`par_map`] sequential.
pub fn set_global_threads(threads: Option<usize>) {
    GLOBAL_THREADS.store(threads.map_or(UNSET, |t| t.max(1)), Ordering::SeqCst);
}

/// Run `f` with the calling thread's thread count forced to `threads`.
/// Restores the previous override afterwards; nests correctly.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let previous = LOCAL_THREADS.with(|c| c.replace(Some(threads.max(1))));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(previous);
    f()
}

/// The thread count [`par_map`] targets on this thread right now.
pub fn max_threads() -> usize {
    if let Some(t) = LOCAL_THREADS.with(Cell::get) {
        return t.max(1);
    }
    let global = GLOBAL_THREADS.load(Ordering::SeqCst);
    if global != UNSET && global != 0 {
        return global;
    }
    if let Ok(value) = std::env::var("COMET_THREADS") {
        if let Ok(t) = value.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Try to reserve up to `wanted` extra worker slots from the global
/// budget `cap`. Returns how many were actually reserved.
fn reserve_workers(wanted: usize, cap: usize) -> usize {
    if wanted == 0 {
        return 0;
    }
    let mut current = ACTIVE_WORKERS.load(Ordering::SeqCst);
    loop {
        let free = cap.saturating_sub(current + 1); // +1: the caller itself
        let take = wanted.min(free);
        if take == 0 {
            return 0;
        }
        match ACTIVE_WORKERS.compare_exchange(
            current,
            current + take,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return take,
            Err(observed) => current = observed,
        }
    }
}

fn release_workers(count: usize) {
    if count > 0 {
        let previous = ACTIVE_WORKERS.fetch_sub(count, Ordering::SeqCst);
        if comet_obs::enabled() {
            comet_obs::gauge_set("par.active_workers", previous.saturating_sub(count) as f64);
        }
    }
}

/// Map `f` over `items` in parallel, returning outputs **in input order**.
///
/// The calling thread participates as a worker, so `par_map` at one thread
/// (or with an exhausted slot budget, or on short inputs) is exactly a
/// sequential `map` on the current thread — same outputs, same order.
/// Work is pulled item-at-a-time from a shared counter, so uneven item
/// costs balance across workers. A panic in `f` propagates to the caller.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_with(items, || (), move |(), t| f(t))
}

/// [`par_map`] with per-worker state: each worker that processes at least
/// one item builds private state with `init` (lazily, on its first item)
/// and hands `f` a mutable reference to it alongside every item it drains.
///
/// The hook for scratch that should persist across the items one worker
/// handles — batched counters, reusable buffers — without a lock per item.
/// `init` runs at most once per worker (≤ thread count, exactly once when
/// sequential). Output order and the sequential-at-one-thread degradation
/// are [`par_map`]'s; for determinism, results must not depend on how items
/// partition across workers, so treat the state as a cache or accumulator,
/// never as an input that changes `f`'s output.
pub fn par_map_with<T, S, U, I, F>(items: Vec<T>, init: I, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> U + Sync,
{
    let n = items.len();
    let threads = max_threads().min(n.max(1));
    if n <= 1 || threads <= 1 {
        let mut state: Option<S> = None;
        return items.into_iter().map(|t| f(state.get_or_insert_with(&init), t)).collect();
    }
    let extra = reserve_workers(threads - 1, max_threads());
    if comet_obs::enabled() {
        // Worker-slot utilization: how often fan-outs run, how many extra
        // workers they win from the slot budget, and the concurrency
        // high-water mark. `sequential_fallbacks` counts fan-outs that
        // wanted workers but found the budget exhausted (nested fan-out).
        comet_obs::counter_add("par.fanouts", 1);
        if extra == 0 {
            comet_obs::counter_add("par.sequential_fallbacks", 1);
        } else {
            comet_obs::counter_add("par.workers_spawned", extra as u64);
            let active = ACTIVE_WORKERS.load(Ordering::SeqCst) as f64;
            comet_obs::gauge_set("par.active_workers", active);
            comet_obs::gauge_max("par.peak_workers", active);
        }
    }
    if extra == 0 {
        let mut state: Option<S> = None;
        return items.into_iter().map(|t| f(state.get_or_insert_with(&init), t)).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    let init = &init;
    let slots = &slots;
    let results = &results;
    let next = &next;
    let inherited = max_threads();

    let drain = move || {
        let mut state: Option<S> = None;
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= n {
                break;
            }
            #[allow(clippy::expect_used)]
            let item = slots[i]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                // comet-lint: allow(D4) — fetch_add hands each index to exactly one worker, so the slot is always occupied
                .expect("each slot taken once");
            let out = f(state.get_or_insert_with(init), item);
            *results[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
        }
    };

    // Release the reserved slots even if a worker panic unwinds the scope.
    struct SlotGuard(usize);
    impl Drop for SlotGuard {
        fn drop(&mut self) {
            release_workers(self.0);
        }
    }
    let _slots_guard = SlotGuard(extra);

    std::thread::scope(|scope| {
        for _ in 0..extra {
            scope.spawn(move || {
                // Workers inherit the caller's effective thread count so a
                // scoped `with_threads` governs nested fan-outs too.
                with_threads(inherited, drain);
            });
        }
        drain();
    });

    results
        .iter()
        .map(|slot| {
            #[allow(clippy::expect_used)]
            let out = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                // comet-lint: allow(D4) — the scope above joins every worker, so each result slot is filled before we drain
                .expect("all items processed");
            out
        })
        .collect()
}

/// Workers currently spawned by in-flight fan-outs across the process.
/// Zero whenever no [`par_map`] is running; exposed so tests can prove
/// panics never leak worker-slot budget.
pub fn active_workers() -> usize {
    ACTIVE_WORKERS.load(Ordering::SeqCst)
}

/// A long-running task's claim on worker slots from the process-global
/// fan-out budget, released on drop (RAII).
///
/// [`par_map`] bounds the *total* live workers across nested fan-outs, but
/// it only knows about threads it spawned itself. A host that runs its own
/// pool on top — the `comet-serve` daemon multiplexing concurrent cleaning
/// sessions over dedicated worker threads — uses [`occupy_slots`] to make
/// those threads count against the same budget: a session running on a
/// daemon worker then sees proportionally fewer free fan-out slots, so
/// N concurrent sessions share the machine instead of each fanning out to
/// the full thread count. Occupancy never changes results, only how much
/// parallelism each fan-out wins (the determinism contract: traces are
/// bit-identical at any thread count).
#[derive(Debug)]
pub struct WorkerSlots {
    granted: usize,
}

impl WorkerSlots {
    /// How many slots were actually reserved (0 when the budget was
    /// already exhausted — the caller still runs, just sequentially).
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for WorkerSlots {
    fn drop(&mut self) {
        release_workers(self.granted);
    }
}

/// Reserve up to `wanted` worker slots from the global budget for a
/// long-running task (best effort — the returned guard reports how many
/// were granted). Slots are returned to the budget when the guard drops.
pub fn occupy_slots(wanted: usize) -> WorkerSlots {
    let granted = reserve_workers(wanted, max_threads());
    if granted > 0 && comet_obs::enabled() {
        comet_obs::gauge_set("par.active_workers", ACTIVE_WORKERS.load(Ordering::SeqCst) as f64);
    }
    WorkerSlots { granted }
}

/// Render a `catch_unwind` payload as a one-line reason string.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`par_map`], but a panic in `f` becomes `Err(reason)` for that item
/// instead of unwinding through the pool.
///
/// The panic is caught *inside* the worker closure, so it never crosses a
/// slot mutex (no poisoning) and the fan-out's worker-slot budget is
/// released exactly as on the success path. Output order and the
/// sequential-at-one-thread degradation are inherited from [`par_map`]:
/// the Ok/Err partition is a pure function of the inputs, not of the
/// thread count or scheduling.
pub fn par_map_catch<T, U, F>(items: Vec<T>, f: F) -> Vec<Result<U, String>>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map(items, move |t| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(t))).map_err(panic_message)
    })
}

/// [`par_map`] over `0..len`, for callers that index shared state instead
/// of moving items.
pub fn par_map_indexed<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map((0..len).collect(), f)
}

/// Fold [`par_map`] results in input order (deterministic reduction).
pub fn par_map_reduce<T, U, A, F, G>(items: Vec<T>, init: A, f: F, fold: G) -> A
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
    G: FnMut(A, U) -> A,
{
    par_map(items, f).into_iter().fold(init, fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::MutexGuard;

    /// The worker-slot budget is process-global and the test harness runs
    /// tests concurrently, so a fan-out could find its slots held by
    /// another test and silently run everything on the caller. Every test
    /// that reserves slots (any fan-out above one thread, or
    /// `occupy_slots`) holds this lock, so each sees the whole budget.
    /// Take it before `OBS_LOCK` wherever both are needed.
    static SLOT_LOCK: Mutex<()> = Mutex::new(());

    fn slot_lock() -> MutexGuard<'static, ()> {
        SLOT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn preserves_input_order() {
        let _slots = slot_lock();
        let out = with_threads(4, || par_map((0..100).collect::<Vec<i64>>(), |x| x * x));
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<i64>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let _slots = slot_lock();
        let items: Vec<usize> = (0..57).collect();
        let seq = with_threads(1, || par_map(items.clone(), |x| x.wrapping_mul(0x9E3779B9)));
        let par = with_threads(8, || par_map(items, |x| x.wrapping_mul(0x9E3779B9)));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(par_map(vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        let _slots = slot_lock();
        let main_thread = std::thread::current().id();
        let saw_other = AtomicBool::new(false);
        with_threads(4, || {
            par_map((0..64).collect::<Vec<usize>>(), |x| {
                if std::thread::current().id() != main_thread {
                    saw_other.store(true, Ordering::SeqCst);
                }
                // Enough work that the spawned workers win some items.
                std::thread::sleep(std::time::Duration::from_micros(200));
                x
            })
        });
        assert!(saw_other.load(Ordering::SeqCst), "expected some items off the main thread");
    }

    #[test]
    fn one_thread_stays_on_caller() {
        let main_thread = std::thread::current().id();
        with_threads(1, || {
            par_map((0..16).collect::<Vec<usize>>(), |x| {
                assert_eq!(std::thread::current().id(), main_thread);
                x
            })
        });
    }

    #[test]
    fn nested_fanout_respects_budget() {
        let _slots = slot_lock();
        // Outer uses the budget; inner calls degrade gracefully and still
        // produce correct, ordered output.
        let out = with_threads(2, || {
            par_map((0..8).collect::<Vec<usize>>(), |outer| {
                let inner = par_map((0..8).collect::<Vec<usize>>(), move |i| outer * 8 + i);
                inner.iter().sum::<usize>()
            })
        });
        let expected: Vec<usize> = (0..8).map(|o: usize| (0..8).map(|i| o * 8 + i).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn with_threads_restores_previous_value() {
        // All assertions nest inside a local override so concurrent tests
        // touching the global override cannot interfere.
        with_threads(3, || {
            assert_eq!(max_threads(), 3);
            with_threads(5, || assert_eq!(max_threads(), 5));
            assert_eq!(max_threads(), 3);
        });
    }

    #[test]
    fn local_override_wins_over_global() {
        // The global override is process-wide shared state; only observe it
        // from under a local override to stay race-free with other tests.
        with_threads(6, || {
            set_global_threads(Some(2));
            assert_eq!(max_threads(), 6);
            set_global_threads(None);
        });
    }

    #[test]
    fn with_state_initializes_once_per_worker() {
        let _slots = slot_lock();
        let inits = AtomicUsize::new(0);
        let out = with_threads(4, || {
            par_map_with(
                (0..64).collect::<Vec<usize>>(),
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize // per-worker item tally
                },
                |tally, x| {
                    *tally += 1;
                    x * 3
                },
            )
        });
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<usize>>());
        let calls = inits.load(Ordering::SeqCst);
        assert!((1..=4).contains(&calls), "init ran {calls} times for 4 threads");
    }

    #[test]
    fn with_state_sequential_shares_one_state() {
        // At one thread the single state threads through every item in
        // order, so the tally equals the item index.
        let out = with_threads(1, || {
            par_map_with(
                (0..10).collect::<Vec<usize>>(),
                || 0usize,
                |seen, x| {
                    let pos = *seen;
                    *seen += 1;
                    (x, pos)
                },
            )
        });
        assert_eq!(out, (0..10).map(|x| (x, x)).collect::<Vec<(usize, usize)>>());
    }

    #[test]
    fn with_state_skips_init_on_empty_input() {
        let inits = AtomicUsize::new(0);
        let out = par_map_with(Vec::<u8>::new(), || inits.fetch_add(1, Ordering::SeqCst), |_, x| x);
        assert_eq!(out, Vec::<u8>::new());
        assert_eq!(inits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn indexed_and_reduce_helpers() {
        let _slots = slot_lock();
        let doubled = with_threads(4, || par_map_indexed(10, |i| i * 2));
        assert_eq!(doubled, (0..10).map(|i| i * 2).collect::<Vec<usize>>());
        let total =
            par_map_reduce((1..=10).collect::<Vec<u64>>(), 0u64, |x| x * x, |acc, v| acc + v);
        assert_eq!(total, 385);
    }

    /// The obs enable flag is process-global; the two metrics tests take
    /// this lock so one cannot observe the other's enabled window.
    static OBS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn utilization_metrics_recorded_when_enabled() {
        let _slots = slot_lock();
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        // Other tests in this binary may fan out concurrently and also
        // record, so assert growth rather than exact values.
        comet_obs::reset();
        comet_obs::set_enabled(true);
        with_threads(4, || {
            par_map((0..64).collect::<Vec<usize>>(), |x| {
                std::thread::sleep(std::time::Duration::from_micros(100));
                x
            })
        });
        comet_obs::set_enabled(false);
        let snap = comet_obs::snapshot();
        assert!(snap.counter("par.fanouts") >= 1);
        assert!(snap.counter("par.workers_spawned") >= 1);
        assert!(snap.gauge("par.peak_workers").unwrap_or(0.0) >= 1.0);
    }

    #[test]
    fn metrics_disabled_records_nothing_from_fanout() {
        let _slots = slot_lock();
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        // The default state: fan-outs must not touch the registry.
        let before = comet_obs::snapshot().counter("par.fanouts");
        with_threads(4, || par_map((0..32).collect::<Vec<usize>>(), |x| x * 2));
        let after = comet_obs::snapshot().counter("par.fanouts");
        assert_eq!(before, after);
    }

    #[test]
    fn catch_turns_panics_into_item_errors() {
        let _slots = slot_lock();
        let out = with_threads(4, || {
            par_map_catch((0..32).collect::<Vec<usize>>(), |x| {
                if x % 5 == 0 {
                    panic!("multiple of five: {x}");
                }
                x * 10
            })
        });
        assert_eq!(out.len(), 32);
        for (i, r) in out.iter().enumerate() {
            if i % 5 == 0 {
                let reason = r.as_ref().unwrap_err();
                assert!(reason.contains("multiple of five"), "reason was {reason:?}");
            } else {
                assert_eq!(*r, Ok(i * 10));
            }
        }
    }

    #[test]
    fn catch_handles_non_string_payloads() {
        let out = par_map_catch(vec![0u8], |_| -> u8 { std::panic::panic_any(42i32) });
        assert_eq!(out, vec![Err("non-string panic payload".to_string())]);
    }

    #[test]
    fn catch_does_not_leak_worker_slots() {
        let _slots = slot_lock();
        // Each fan-out reserves up to 3 extra slots at 4 threads; if a
        // caught panic leaked its reservation, 64 panicking fan-outs would
        // pin ACTIVE_WORKERS near 192. Concurrent tests in this binary may
        // hold a handful of slots of their own, hence the loose bound.
        for _ in 0..64 {
            with_threads(4, || {
                par_map_catch((0..8).collect::<Vec<usize>>(), |x| {
                    if x % 2 == 0 {
                        panic!("boom");
                    }
                    x
                })
            });
        }
        assert!(active_workers() <= 16, "leaked worker slots: {}", active_workers());
        // And the budget is still usable: a fresh fan-out parallelizes.
        let out = with_threads(4, || par_map((0..8).collect::<Vec<usize>>(), |x| x + 1));
        assert_eq!(out, (1..9).collect::<Vec<usize>>());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]
        #[test]
        fn catch_partition_is_thread_count_invariant(
            values in proptest::prop::collection::vec(0i64..1_000, 1..40),
            modulus in 2i64..7,
        ) {
            let _slots = slot_lock();
            let run = |threads: usize| {
                with_threads(threads, || {
                    par_map_catch(values.clone(), |v| {
                        if v % modulus == 0 {
                            panic!("injected: {v} divisible by {modulus}");
                        }
                        v.wrapping_mul(3)
                    })
                })
            };
            let t1 = run(1);
            let t2 = run(2);
            let t8 = run(8);
            proptest::prop_assert_eq!(&t1, &t2);
            proptest::prop_assert_eq!(&t1, &t8);
            for (i, r) in t1.iter().enumerate() {
                match r {
                    Ok(out) => proptest::prop_assert_eq!(*out, values[i].wrapping_mul(3)),
                    Err(reason) => proptest::prop_assert!(reason.contains("injected")),
                }
            }
            proptest::prop_assert!(active_workers() <= 16, "leaked slots: {}", active_workers());
        }
    }

    #[test]
    fn occupied_slots_obey_the_shared_budget_and_release_on_drop() {
        let _slots = slot_lock();
        // ACTIVE_WORKERS is process-global and other tests' fan-outs run
        // concurrently, so assert invariants that hold regardless of
        // outside activity rather than exact global counts.
        with_threads(4, || {
            let lease = occupy_slots(2);
            let granted = lease.granted();
            assert!(granted <= 2);
            // Whatever is happening elsewhere, our two claims plus the
            // caller itself can never exceed this thread's cap of 4.
            let inner = occupy_slots(4);
            assert!(
                granted + inner.granted() <= 3,
                "over-granted: {} + {}",
                granted,
                inner.granted()
            );
            drop(inner);
            drop(lease);
            // Fan-outs still work (and still return input order) afterwards.
            let out = par_map((0..8).collect::<Vec<usize>>(), |x| x * 2);
            assert_eq!(out, (0..8).map(|x| x * 2).collect::<Vec<usize>>());
        });
    }

    #[test]
    fn occupying_an_exhausted_budget_grants_zero() {
        with_threads(1, || {
            // Cap 1 = the caller itself; nothing is ever free to occupy
            // (free = cap - current - 1 saturates at zero no matter what
            // other tests' workers are doing).
            let lease = occupy_slots(3);
            assert_eq!(lease.granted(), 0);
            assert_eq!(occupy_slots(0).granted(), 0);
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let _slots = slot_lock();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map((0..32).collect::<Vec<usize>>(), |x| {
                    if x == 17 {
                        panic!("boom");
                    }
                    x
                })
            })
        });
        assert!(result.is_err());
        // The slot guard must have released the budget despite the panic:
        // a fresh fan-out still parallelizes (returns correct results).
        let out = with_threads(4, || par_map((0..8).collect::<Vec<usize>>(), |x| x + 1));
        assert_eq!(out, (1..9).collect::<Vec<usize>>());
    }
}

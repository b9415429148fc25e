/// \file event_count.h
/// \brief `EventCount`: the one park/notify primitive behind every blocking
/// wait in countlib's concurrent layers.
///
/// The ingestion pipeline grew three hand-rolled copies of the same
/// mechanism — worker wakeup, producer not-full parking, and the
/// producer-slot registry — each restating an epoch cell, a waiter count,
/// a mutex/CV pair, and the same seq_cst Dekker discipline that makes a
/// skipped notify safe. This header collapses them into one type so the
/// discipline is written (and model-checked by the sanitizer CI) exactly
/// once.
///
/// ## The contract
///
/// An `EventCount` couples a monotonically increasing **epoch** with a
/// **waiter count** and a mutex/CV pair:
///
///  - The notifying side calls `NotifyIfWaiters()` after every state
///    change a waiter can wait on (freeing queue space, releasing a lease,
///    pushing into a queue). It bumps the epoch with seq_cst and takes the
///    mutex to notify **only when a waiter is registered** — the fast
///    path is one atomic RMW and one atomic load, no mutex, no CV.
///  - The waiting side either
///     (a) runs one bounded **park episode**: snapshot `Epoch()`, recheck
///         its own condition, then `ParkOne(snapshot, cancel, backstop)` —
///         the shape for loops that must interleave real work between
///         sleeps (a drain pass, a `TrySubmit` retry); or
///     (b) calls `ParkUntil(pred, backstop)` and stays registered until
///         the predicate holds — the shape for pure waits (flush, slot
///         acquisition).
///
/// Why the skipped notify is safe: the waiter registers itself (seq_cst
/// RMW) *before* it evaluates the predicate / epoch, and the notifier
/// bumps the epoch (seq_cst RMW) *before* it reads the waiter count.
/// Seq_cst puts both RMWs in one total order, so either the notifier sees
/// the registration and notifies, or the waiter sees the new epoch and
/// skips the sleep — the Dekker pattern. No wakeup is lost as long as the
/// notifier calls `NotifyIfWaiters()` unconditionally after each state
/// change. Deciding *whether* to notify from a guess — a transition
/// verdict read off an index that may be stale, or a `HasWaiters()` check
/// that a waiter can register right after — reopens the window. Every
/// sleep still carries a bounded `backstop` timeout, but only as a
/// liveness guard; it also caps a fully idle waiter's wake rate at
/// ~1000/backstop_ms per second.
///
/// ## Static-analysis status
///
/// This header is the codebase's one sanctioned raw
/// `std::mutex`/`std::condition_variable` site (conclint.py enforces
/// that): `condition_variable::wait` demands a genuine
/// `std::unique_lock<std::mutex>`, which the annotated `countlib::Mutex`
/// cannot provide without defeating the analysis anyway. There is no
/// mutex-guarded plain state here — everything shared is an atomic with
/// the seq_cst discipline above — so Clang Thread Safety Analysis has
/// nothing to track; the TSAN CI lane is the checker for this file.

#ifndef COUNTLIB_UTIL_EVENT_COUNT_H_
#define COUNTLIB_UTIL_EVENT_COUNT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace countlib {

/// \brief Epoch + waiter-count + mutex/CV park/notify primitive.
///
/// Thread-safe; any number of notifiers and waiters. See the file comment
/// for the memory-ordering contract.
class EventCount {
 public:
  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Current epoch (seq_cst). Snapshot this *before* rechecking the
  /// condition you are about to park on; pass the snapshot to `ParkOne`.
  uint64_t Epoch() const {
    // mo: seq_cst — the snapshot must order before the caller's condition
    // recheck in the Dekker total order so a notify between snapshot and
    // park is never missed.
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// True when at least one waiter is registered. A probe for tests and
  /// telemetry: never gate a `NotifyIfWaiters()` on it, since a waiter can
  /// register right after the check (see the file comment).
  bool HasWaiters() const {
    // mo: seq_cst — this probe must slot into the same total order as the
    // waiter-registration RMWs; a weaker load could miss a waiter that
    // registered before the caller's progress became visible.
    return waiters_.load(std::memory_order_seq_cst) > 0;
  }

  /// Publishes progress: bumps the epoch (seq_cst), then notifies the CV
  /// only if a waiter is registered. When nobody waits this is one atomic
  /// RMW plus one atomic load — no mutex, no syscall.
  void NotifyIfWaiters() {
    // mo: seq_cst — the epoch bump must precede the waiter-count read in
    // the single total order (the notifier half of the Dekker pattern; see
    // the file comment).
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    // mo: seq_cst — paired with the waiter's seq_cst registration RMW:
    // either this load sees the waiter or the waiter sees the new epoch.
    if (waiters_.load(std::memory_order_seq_cst) > 0) {
      // Empty critical section on purpose: taking the mutex orders this
      // notify after any waiter that registered and is about to block, so
      // the notify cannot fall between its predicate check and its wait.
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
  }

  /// One bounded park episode: registers as a waiter and sleeps until the
  /// epoch moves past `epoch`, `cancel()` turns true, or `backstop`
  /// elapses. Returns true when ended by the predicate (a real signal),
  /// false on timeout — callers use the verdict for wakeup accounting.
  ///
  /// Protocol: snapshot `Epoch()` first, recheck your condition, and only
  /// then park on the snapshot. Any notify after the snapshot moves the
  /// epoch, so the sleep is skipped or ended immediately.
  template <typename Cancel>
  bool ParkOne(uint64_t epoch, Cancel cancel,
               std::chrono::milliseconds backstop) {
    std::unique_lock<std::mutex> lock(mu_);
    // mo: seq_cst — registration must precede the predicate's first epoch
    // read in the total order (the waiter half of the Dekker pattern).
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    const bool signaled = cv_.wait_for(lock, backstop, [&] {
      // mo: seq_cst — ordered after the registration RMW above, so a
      // notify that missed the registration is still seen as an epoch move.
      return epoch_.load(std::memory_order_seq_cst) != epoch || cancel();
    });
    // mo: seq_cst — symmetric with the registration; keeps the waiter
    // count's RMWs in one total order with HasWaiters/NotifyIfWaiters.
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
    return signaled;
  }

  /// Parks until `pred()` holds, staying registered as a waiter across the
  /// whole wait so every `NotifyIfWaiters` reaches it; each individual
  /// sleep is bounded by `backstop`, a liveness guard only. The predicate
  /// is evaluated under the internal mutex and must not call back into
  /// this EventCount.
  template <typename Pred>
  void ParkUntil(Pred pred, std::chrono::milliseconds backstop) {
    std::unique_lock<std::mutex> lock(mu_);
    // mo: seq_cst — registration before the first pred() evaluation, same
    // Dekker discipline as ParkOne.
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    while (!pred()) {
      cv_.wait_for(lock, backstop);
    }
    // mo: seq_cst — symmetric deregistration (see ParkOne).
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

 private:
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> waiters_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace countlib

#endif  // COUNTLIB_UTIL_EVENT_COUNT_H_

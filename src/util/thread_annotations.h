/// \file thread_annotations.h
/// \brief Clang Thread Safety Analysis macros — the compile-time half of
/// countlib's concurrency contract.
///
/// The locking discipline that used to live in comments ("guarded by
/// slots_mu_", "caller holds workers_mu_") becomes machine-checked here:
/// every mutex-protected member carries a `GUARDED_BY`, every
/// holds-the-lock helper a `REQUIRES`, and a build with
/// `clang++ -Wthread-safety -Werror=thread-safety` (the static-analysis CI
/// lane) fails on any access that violates the contract. Under non-Clang
/// compilers (and Clang without the analysis) every macro expands to
/// nothing, so gcc builds are unaffected.
///
/// The macro set is the standard one from the Clang Thread Safety Analysis
/// documentation. Use them with `countlib::Mutex` / `countlib::MutexLock`
/// (util/mutex.h): the standard-library `std::mutex` is not annotated
/// under libstdc++, so the analysis can only track locks taken through the
/// annotated wrapper.
///
/// The one sanctioned opt-out in this codebase is `util/event_count.h`,
/// which keeps a raw `std::mutex`/`std::condition_variable` pair because
/// `condition_variable::wait` demands a `std::unique_lock<std::mutex>`;
/// its seq_cst Dekker discipline is documented there and model-checked by
/// the TSAN CI lane instead. Everything else takes its locks through the
/// annotated types. See docs/concurrency.md for the full discipline.

#ifndef COUNTLIB_UTIL_THREAD_ANNOTATIONS_H_
#define COUNTLIB_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define COUNTLIB_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define COUNTLIB_THREAD_ANNOTATION__(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability (e.g. a mutex wrapper).
#define CAPABILITY(x) COUNTLIB_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define SCOPED_CAPABILITY COUNTLIB_THREAD_ANNOTATION__(scoped_lockable)

/// The member may only be accessed while holding the given capability.
#define GUARDED_BY(x) COUNTLIB_THREAD_ANNOTATION__(guarded_by(x))

/// The data *pointed to* by the member may only be accessed while holding
/// the given capability (the pointer itself is unguarded).
#define PT_GUARDED_BY(x) COUNTLIB_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock detection).
#define ACQUIRED_BEFORE(...) \
  COUNTLIB_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  COUNTLIB_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// The function may only be called while holding the given capabilities.
#define REQUIRES(...) \
  COUNTLIB_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  COUNTLIB_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the given capabilities.
#define ACQUIRE(...) \
  COUNTLIB_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  COUNTLIB_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  COUNTLIB_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  COUNTLIB_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns the given value.
#define TRY_ACQUIRE(...) \
  COUNTLIB_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  COUNTLIB_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))

/// The function must NOT be called while holding the given capabilities
/// (guards against self-deadlock on a non-reentrant mutex).
#define EXCLUDES(...) COUNTLIB_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Asserts (at runtime, to the analysis) that the capability is held.
#define ASSERT_CAPABILITY(x) COUNTLIB_THREAD_ANNOTATION__(assert_capability(x))

/// The function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) COUNTLIB_THREAD_ANNOTATION__(lock_returned(x))

/// Turns the analysis off for one function. Sanctioned uses only — in this
/// codebase that is `util/event_count.h`'s Dekker site; everything else
/// must express its contract with the macros above.
#define NO_THREAD_SAFETY_ANALYSIS \
  COUNTLIB_THREAD_ANNOTATION__(no_thread_safety_analysis)

/// Declares a mutex's position in the global lock hierarchy
/// (docs/concurrency.md, "Lock hierarchy"). While holding a mutex of
/// level L, a thread may only acquire mutexes with level strictly
/// greater than L — so the hierarchy is acyclic by construction and
/// tools/locktree.py can check every acquisition site against it.
/// Every `countlib::Mutex` declaration in src/ must carry one:
///
///   Mutex slots_mu_ LOCK_LEVEL(30);
///
/// Under Clang this also plants an `annotate("countlib::lock_level=N")`
/// attribute in the AST so locktree's libclang cross-validation pass can
/// verify the levels it parsed syntactically; elsewhere it expands to
/// nothing. locktree itself reads the macro text, so the check runs on
/// any toolchain.
#define LOCK_LEVEL(n) \
  COUNTLIB_THREAD_ANNOTATION__(annotate("countlib::lock_level=" #n))

#endif  // COUNTLIB_UTIL_THREAD_ANNOTATIONS_H_

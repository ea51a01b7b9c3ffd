// Clang thread-safety-analysis annotations (no-ops on other compilers).
//
// These macros let clang's -Wthread-safety prove the locking discipline of
// the annotated Mutex (common/mutex.h) at compile time; CI builds with
// -Werror=thread-safety-analysis under clang (see CMakeLists.txt /
// .github/workflows/ci.yml), while gcc builds see empty expansions.
//
// Only perf/probe.cc uses them; they go with the benchmark change that
// drops the scale16k_threads workload.
#ifndef FLOWERCDN_COMMON_THREAD_ANNOTATIONS_H_
#define FLOWERCDN_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define FLOWER_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define FLOWER_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op off clang
#endif

/// Member is protected by the given capability (mutex): reads require the
/// capability shared, writes require it exclusively.
#define GUARDED_BY(x) FLOWER_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Function acquires the capability and holds it past return.
#define ACQUIRE(...) \
  FLOWER_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// Function releases a held capability.
#define RELEASE(...) \
  FLOWER_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// Declares the annotated class a capability (for mutex wrappers).
#define CAPABILITY(x) FLOWER_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// RAII type that acquires on construction, releases on destruction.
#define SCOPED_CAPABILITY FLOWER_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

#endif  // FLOWERCDN_COMMON_THREAD_ANNOTATIONS_H_

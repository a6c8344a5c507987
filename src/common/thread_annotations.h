/**
 * @file
 * Clang Thread Safety Analysis attribute macros (DESIGN.md section 13).
 *
 * Every mutex, condition variable, and phase-role capability in this
 * codebase is annotated through these macros so that the invariant
 * "who may touch this state, holding what" is machine-checked at
 * compile time instead of merely asserted in comments. The gate is the
 * CITADEL_THREAD_SAFETY CMake option, which turns on
 * `-Wthread-safety -Werror` under clang; under any other compiler (or
 * a clang without the capability attributes) the macros expand to
 * nothing, so annotated code stays portable.
 *
 * Vocabulary (mirrors the attribute names in the clang documentation):
 *
 *  - CITADEL_CAPABILITY(name): this class is a capability (a mutex, or
 *    a phase role such as the fleet's serial-phase token).
 *  - CITADEL_GUARDED_BY(cap): this field may only be read or written
 *    while `cap` is held.
 *  - CITADEL_REQUIRES(cap): callers must hold `cap` before calling.
 *  - CITADEL_ACQUIRE / CITADEL_RELEASE: this function takes / drops
 *    the capability.
 *  - CITADEL_EXCLUDES(cap): callers must NOT hold `cap` (used to keep
 *    parallel-phase entry points out of serial-phase scopes).
 *  - CITADEL_ASSERT_CAPABILITY(cap): runtime boundary assertion; the
 *    analysis assumes `cap` is held afterwards. Used inside the
 *    type-erased callbacks (std::function) that the analysis cannot
 *    see through.
 *  - CITADEL_SCOPED_CAPABILITY: RAII guard class whose constructor
 *    acquires and destructor releases.
 *  - CITADEL_NO_THREAD_SAFETY_ANALYSIS: body-level opt-out, reserved
 *    for the functions that *implement* locking primitives.
 */

#ifndef CITADEL_COMMON_THREAD_ANNOTATIONS_H
#define CITADEL_COMMON_THREAD_ANNOTATIONS_H

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CITADEL_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif

#ifndef CITADEL_THREAD_ANNOTATION
#define CITADEL_THREAD_ANNOTATION(x) // no-op: compiler lacks TSA
#endif

#define CITADEL_CAPABILITY(x) CITADEL_THREAD_ANNOTATION(capability(x))

#define CITADEL_SCOPED_CAPABILITY CITADEL_THREAD_ANNOTATION(scoped_lockable)

#define CITADEL_GUARDED_BY(x) CITADEL_THREAD_ANNOTATION(guarded_by(x))

#define CITADEL_PT_GUARDED_BY(x) CITADEL_THREAD_ANNOTATION(pt_guarded_by(x))

#define CITADEL_REQUIRES(...) \
    CITADEL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

#define CITADEL_REQUIRES_SHARED(...) \
    CITADEL_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

#define CITADEL_ACQUIRE(...) \
    CITADEL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

#define CITADEL_RELEASE(...) \
    CITADEL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#define CITADEL_EXCLUDES(...) \
    CITADEL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define CITADEL_ASSERT_CAPABILITY(x) \
    CITADEL_THREAD_ANNOTATION(assert_capability(x))

#define CITADEL_RETURN_CAPABILITY(x) \
    CITADEL_THREAD_ANNOTATION(lock_returned(x))

#define CITADEL_NO_THREAD_SAFETY_ANALYSIS \
    CITADEL_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // CITADEL_COMMON_THREAD_ANNOTATIONS_H

"""Project-specific knowledge the checks consume: which types are locks,
which calls block, what counts as a QueryContext poll, where the query entry
points are, and which functions form the sanctioned page-mutation seam.

Keeping this in one module (instead of scattering string literals through the
checks) is what makes the analyzer maintainable as the tree grows: a new
subsystem usually means a few additions here, not a new pass.
"""

# ---------------------------------------------------------------------------
# Locks.

# RAII scope types that acquire on construction and release at end of scope.
# The token frontend recognizes `TYPE name(&expr)` / `TYPE<..> name(expr)`.
RAII_LOCK_TYPES = {"MutexLock", "lock_guard", "unique_lock", "scoped_lock"}

# Manual acquire/release method names on lock objects.
MANUAL_ACQUIRE = {"Lock", "lock"}
MANUAL_RELEASE = {"Unlock", "unlock"}
MANUAL_TRY = {"try_lock", "TryLock"}

# Condition-variable waits. These *release* the innermost lock while waiting,
# so they only count as blocking-under-lock when a second mutex is held.
CV_WAIT_NAMES = {"wait", "wait_for", "wait_until"}

# Thread-safety annotation spellings that mean "caller must hold".
REQUIRES_ANNOTATIONS = {"REQUIRES", "EXCLUSIVE_LOCKS_REQUIRED"}

# ---------------------------------------------------------------------------
# Blocking operations (may sleep, fsync, fault-retry, or do file I/O).
#
# Flagged when called with any mutex held (cv waits: see above). The names are
# matched against the callee; the receiver is reported for context. `join`
# covers std::thread joins (a join under a lock is a deadlock factory).
BLOCKING_CALLS = {
    "Sync", "Fsync", "Flush", "FlushAll",
    "ReadPage", "WritePage", "AllocatePage",
    "Append", "Replay", "Reset",
    "Read", "Write",
    "RetryTransient",
    "sleep_for", "sleep_until",
    "join",
}
# Receivers whose `Read`/`Write`/`Reset` are NOT file I/O (metrics, counters,
# string streams, token resets). Calls on these receivers are exempt.
NONBLOCKING_RECEIVER_HINTS = (
    "counter", "gauge", "hist", "metric", "stats", "stream", "token",
    "trace", "timer", "rng",
)

# ---------------------------------------------------------------------------
# Cancellation cadence.

# Query-path entry points: a loop reachable from any of these must poll the
# QueryContext (PR 5 contract). Matched on the unqualified function name.
QUERY_ENTRY_POINTS = {
    "Query", "QueryBatch",
    "RangeQuery", "FilteredQuery", "DecisionQuery",
}

# A direct poll site: any of these spellings touching a context/deadline.
# (method name, receiver substring) — receiver "" matches anything.
POLL_SITES = [
    ("CheckNow", ""),
    ("Check", "ctx"),
    ("CheckEvery", ""),
    ("cancelled", "ctx"),
    ("cancelled", "cancel"),
    ("Expired", "deadline"),
    ("Expired", "ctx"),
]

# Functions whose loops are exempt because they are pure per-vector math
# bounded by the dimension or k (the cadence contract bounds *scan* work, not
# one distance computation).
CADENCE_EXEMPT_FUNCTIONS = set()

# Subtrees exempt from the cadence contract wholesale. src/baselines/ holds
# the offline evaluation reference implementations (E2LSH, LSB-forest,
# multi-probe, SRS) — they run under the bench harness, take no QueryContext
# by design, and are not servable query paths (ROADMAP scope).
CADENCE_EXEMPT_PREFIXES = ("src/baselines/",)

# How deep to chase "this call eventually loops / polls" through the call
# graph before giving up (keeps the walk linear on this tree's size).
CALL_GRAPH_DEPTH = 6

# ---------------------------------------------------------------------------
# Mutation-seam confinement.

# The page-mutation primitives that must stay behind the WAL-backed seam.
SEAM_PRIMITIVES = {"WritePage", "AllocatePage", "SetUserRoot"}

# Function-level seam membership (retires the old file-path heuristic):
#   - every function defined in a file under src/storage/ is in the seam
#     (the storage layer IS the mutation machinery), and
#   - the explicitly sanctioned compaction/recovery/publish functions of the
#     disk index, listed by qualified name.
SEAM_DIR_PREFIX = "src/storage/"
SEAM_FUNCTIONS = {
    # Bootstrap: writes the meta tree and publishes the initial user_root
    # before the index is visible to readers.
    "DiskC2lshIndex::Build",
    # The compaction fold + atomic user_root publish.
    "DiskC2lshIndex::Compact",
}
# Directories whose direct primitive calls are exempt (they tear state on
# purpose): tests, tools, bench, fuzz.
SEAM_EXEMPT_PREFIXES = ("tests/", "tools/", "bench/", "fuzz/", "examples/")

# ---------------------------------------------------------------------------
# Status discipline.

# Statement wrappers that consume a Status by construction.
STATUS_CONSUMING_MACROS = {
    "C2LSH_RETURN_IF_ERROR", "C2LSH_ASSIGN_OR_RETURN",
    "ASSERT_OK", "EXPECT_OK",
}
# gtest / test-assertion prefixes: anything starting with these consumes.
TEST_MACRO_PREFIXES = ("ASSERT_", "EXPECT_")

# Analyzed tree: which top-level dirs the default run covers. tests/, bench/
# and tools/ are covered by the compiler's [[nodiscard]] (always built); the
# analyzer focuses on library invariants.
DEFAULT_ANALYSIS_DIRS = ("src",)

/**
 * @file
 * Cycle-level out-of-order core with value speculation.
 *
 * The base microarchitecture follows the paper's §2.1: a Register
 * Update Unit (unified issue + retirement window of reservation
 * stations), values living in the register file / window / bypass,
 * selection prioritising branches and loads then oldest-first, loads
 * waiting for all preceding store addresses, perfect load-hit
 * scheduling (consumers wake when the load's actual latency elapses),
 * wrong-path execution with modelled side effects, and no functional
 * unit limits except data-cache ports.
 *
 * Value speculation (§2.2) adds the four operand states
 * (invalid / predicted / speculative / valid), a value predictor +
 * confidence estimator consulted at dispatch, and the verification
 * network. Dependence on unresolved predictions is tracked exactly:
 * every operand and every produced value carries a bitmask (over
 * window slots) of the predictions it transitively depends on — see
 * window_types.hh.
 *
 * The masks are as wide as the window needs: BasicOooCore<Bits> is
 * the core at one mask width, built for 128, 256 and 512 bits, and
 * OooCore runs each job on the narrowest width that holds its window
 * (maskBitsFor). Every width gives byte-identical results.
 *
 * The core is layered (see DESIGN.md):
 *
 *   frontend   fetch/dispatch stages            (ooo_frontend.cc)
 *   backend    wakeup/select/issue              (ooo_issue.cc)
 *              completion/events/retire         (ooo_commit.cc)
 *   policy/    the §3 model variables as strategy objects —
 *              SelectionPolicy, VerifyPolicy, InvalidatePolicy —
 *              constructed from the SpecModel by makePolicies()
 *   events     EventQueue with a deterministic (cycle, seq, kind)
 *              ordering contract                (event_queue.hh)
 *   wakeup     IssueScheduler ready lists keyed by operand
 *              availability                     (issue_scheduler.hh)
 *   time       CycleWheel buckets under completions, events and
 *              wakeup timers                    (cycle_wheel.hh)
 *
 * Timing of the speculation events is governed entirely by the
 * SpecModel latency variables (§4); with value prediction disabled the
 * machine is the paper's base processor.
 *
 * Correctness is enforced by construction: the retire stage compares
 * every committed instruction against the functional pre-execution
 * trace and panics on divergence, so timing bugs cannot silently
 * corrupt results.
 */

#ifndef VSIM_CORE_OOO_CORE_HH
#define VSIM_CORE_OOO_CORE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "core_config.hh"
#include "core_stats.hh"
#include "cycle_wheel.hh"
#include "event_queue.hh"
#include "issue_scheduler.hh"
#include "pipeline_trace.hh"
#include "policy/policies.hh"
#include "snapshot.hh"
#include "spec_model.hh"
#include "store_table.hh"
#include "subscriber_index.hh"
#include "window_types.hh"
#include "vsim/obs/interval.hh"
#include "vsim/obs/ledger.hh"
#include "vsim/arch/functional_core.hh"
#include "vsim/assembler/program.hh"
#include "vsim/bpred/bpred.hh"
#include "vsim/mem/cache.hh"
#include "vsim/mem/mem_image.hh"
#include "vsim/vpred/vpred.hh"

namespace vsim::core
{

/** Final result of a simulation run. */
struct SimOutcome
{
    CoreStats stats;
    std::uint64_t exitCode = 0;
    std::string output;
    bool halted = false; //!< false if maxCycles was hit
    /** Per-interval time series (empty unless cfg.metricsInterval). */
    obs::IntervalSeries intervals;
    /** Per-prediction records (empty unless cfg.specLedger). */
    obs::SpecLedger ledger;
};

/**
 * Optional hook that replaces the value predictor for specific PCs —
 * used by the Figure 1 reproduction to force correct or incorrect
 * predictions onto chosen instructions. Returning nullopt falls back
 * to "no prediction" for that instruction.
 */
using PredictionOverride = std::function<std::optional<std::uint64_t>(
    std::uint64_t pc, std::uint64_t correct_value)>;

/**
 * The core with every dependence mask Bits wide; the window may hold
 * at most Bits entries. OooCore below is the public face: it picks
 * the width per job. Tests build a width directly to compare widths.
 */
template <std::size_t Bits>
class BasicOooCore : private SpecHooks<Bits>
{
  public:
    /**
     * Build a core for @p prog replaying the pre-executed dynamic
     * trace @p recorded, shared so N shard cores replaying the same
     * trace share one instance.
     */
    BasicOooCore(const assembler::Program &prog,
                 std::shared_ptr<const arch::ExecTrace> recorded,
                 const CoreConfig &config);
    ~BasicOooCore() override;

    BasicOooCore(const BasicOooCore &) = delete;
    BasicOooCore &operator=(const BasicOooCore &) = delete;

    /** Replace predictor output for matching PCs (Fig. 1 harness). */
    void setPredictionOverride(PredictionOverride override_fn);

    /**
     * Begin mid-trace from a functional-warmup snapshot: load the
     * architected registers/memory/PC and restore the predictor,
     * confidence and cache tables. Must be called on a fresh core,
     * before the first tick and before setRunWindow(). The snapshot
     * must have been produced for the same trace and machine
     * geometry.
     */
    void startFromSnapshot(const SimSnapshot &snap);

    /**
     * Shard stats window: start counting statistics once
     * @p stats_from_retired instructions have retired, and stop
     * simulating once @p stop_after_retired have. The boundary cut
     * happens at the end of the cycle in which the retired count
     * crosses the threshold, so two shards meeting at the same
     * boundary partition the cycle stream exactly (the crossing cycle
     * belongs to the earlier shard). Call after startFromSnapshot()
     * when both are used. Instruction counts are absolute trace
     * indices.
     */
    void setRunWindow(std::uint64_t stats_from_retired,
                      std::uint64_t stop_after_retired);

    /** Cycle at which the shard stats window opened (0 = at start). */
    std::uint64_t statsCutCycle() const { return statsCut.cycleAt; }

    /** Run to completion (HALT retires) or cfg.maxCycles. */
    SimOutcome run();

    /** Advance one cycle; @return false once halted. */
    bool tick();

    const CoreStats &stats() const { return stats_; }
    const PipelineTracer &tracer() const { return tracer_; }
    std::uint64_t now() const { return cycle; }

    /** Dynamic instruction count of the program (pre-execution). */
    std::uint64_t programLength() const { return trace.entries.size(); }

    /**
     * Test hook: verify the subscriber-index invariants (every set
     * dependence bit subscribed and every subscription unique) against
     * the current window. @return false with an explanation in @p why.
     */
    bool
    checkSweepInvariants(std::string *why = nullptr) const
    {
        return subsIndex.checkInvariants(window, why);
    }

  private:
    // ---- pipeline stages (called in reverse order each cycle) ----------
    void applyCompletions(); // ooo_commit.cc
    void processEvents();    // ooo_commit.cc
    void retireStage();      // ooo_commit.cc
    void issueStage();       // ooo_issue.cc
    void dispatchStage();    // ooo_frontend.cc
    void fetchStage();       // ooo_frontend.cc

    // ---- slot / window helpers (ooo_core.cc) ---------------------------
    int allocSlot();
    void freeSlot(int slot);
    int windowCount() const { return liveEntries; }
    RsEntry<Bits> &
    entry(int slot)
    {
        return window[static_cast<std::size_t>(slot)];
    }
    const RsEntry<Bits> &
    entry(int slot) const
    {
        return window[static_cast<std::size_t>(slot)];
    }
    RsCold &cold(int slot)
    {
        return windowCold[static_cast<std::size_t>(slot)];
    }
    const RsCold &
    cold(int slot) const
    {
        return windowCold[static_cast<std::size_t>(slot)];
    }
    WindowRef<Bits>
    windowRef()
    {
        return {window, windowOrder,
                sparseSweeps() ? &subsIndex : nullptr, &windowCold};
    }
    bool sparseSweeps() const
    {
        return cfg.sweepKind == SweepKind::Sparse;
    }
    void squashAfter(std::uint64_t seq, std::uint64_t new_fetch_pc,
                     std::int64_t resume_trace_idx);
    void rebuildRegTags();
    /** Re-decode textInsts from committed memory. */
    void predecodeText();
    void nullify(RsEntry<Bits> &e);
    void noteOutputValid(RsEntry<Bits> &e, bool via_event);
    void resolvePrediction(RsEntry<Bits> &p, bool verified);

    // ---- frontend helpers (ooo_frontend.cc) ----------------------------
    void captureOperand(RsEntry<Bits> &e, int idx, int reg);
    void predictValueAt(RsEntry<Bits> &e);

    // ---- backend helpers (ooo_issue.cc / ooo_commit.cc) -----------------
    bool canIssue(const RsEntry<Bits> &e) const;
    WakeClass classifyWakeup(int slot) const;

    /** The LSQ's stores for the current cycle, rebuilt on first use. */
    const StoreTable &
    storeTable()
    {
        if (storesCycle != cycle)
            buildStoreTable();
        return stores;
    }
    void buildStoreTable();
    /**
     * Selection's memory checks for load candidate @p e: the ordering
     * rule, and a free data-cache port unless the load forwards.
     */
    bool loadMayIssue(const RsEntry<Bits> &e);
    /** Memory ops may resolve with speculative operands (§3.2). */
    bool specMemResolution() const
    {
        return cfg.useValuePrediction && !model.memNeedsValidOps;
    }
    void issueEntry(RsEntry<Bits> &e);
    void broadcast(RsEntry<Bits> &producer);
    void doEqCheck(RsEntry<Bits> &e);
    bool retireOne();

    // ---- SpecHooks: mutations raised by the policy sweeps ---------------
    void outputBecameValid(RsEntry<Bits> &e) override;
    void nullifyEntry(RsEntry<Bits> &e) override;
    void completeSquash(RsEntry<Bits> &p) override;
    void wakeupChanged(RsEntry<Bits> &e) override;
    void operandInvalidated(RsEntry<Bits> &e, int idx) override;
    void attributeSweep(const RsEntry<Bits> &p,
                        const RsEntry<Bits> &consumer,
                        bool invalidation) override;

    // ---- wakeup-scheduler bookkeeping ------------------------------------
    bool readyListScheduler() const
    {
        return cfg.scheduler == SchedulerKind::ReadyList;
    }
    void touchWakeup(int slot);
    void registerWaiter(int consumer_slot, int idx, int tag);

    // ---- observability ---------------------------------------------------
    /** End-of-cycle sampling (histograms + interval metrics). */
    void sampleObservability();
    /** Close the open interval covering @p cycles cycles. */
    void flushInterval(std::uint64_t cycles);
    /**
     * CPI-stack attribution: charge the cycle that just executed to
     * exactly one category, from end-of-cycle machine state.
     * @p retired_delta is the number of instructions retired this
     * cycle. Reads only deterministic simulation state, so stacks are
     * bit-identical across jobs, sweep kinds, schedulers and replay.
     */
    obs::CpiCat classifyCycle(std::uint64_t retired_delta);

    // ---- speculation-ledger bookkeeping ----------------------------------
    /** A consumer captured @p producer's still-unresolved prediction. */
    void notePredConsumed(const RsEntry<Bits> &producer);
    /** Record the prediction dispatched on @p e (cfg.specLedger only). */
    void ledgerPredictionMade(const RsEntry<Bits> &e);
    /** Terminal state for the prediction on slot @p p. */
    void ledgerResolved(const RsEntry<Bits> &p,
                        obs::LedgerOutcome outcome);

    // ---- configuration / substrate --------------------------------------
    CoreConfig cfg;
    SpecModel model;
    PolicySet policies;
    /**
     * Oracle trace, shared so shard workers replaying the same trace
     * do not copy it; `trace` is the single access path for the
     * stages. traceOwned must be declared before trace (it
     * initializes the reference).
     */
    std::shared_ptr<const arch::ExecTrace> traceOwned;
    const arch::ExecTrace &trace;
    mem::MemImage memory; //!< committed memory state
    std::array<std::uint64_t, isa::kNumRegs> archRegs{};
    std::string output;

    std::unique_ptr<bpred::BranchPredictor> bpred_;
    std::unique_ptr<vpred::ValuePredictor> vpred_;
    std::unique_ptr<vpred::ResettingConfidence> conf_;
    PredictionOverride predOverride;

    mem::Cache l2;
    mem::CacheHierarchy icacheH;
    mem::CacheHierarchy dcacheH;

    // ---- machine state ----------------------------------------------------
    std::uint64_t cycle = 0;
    std::uint64_t nextSeq = 1;
    bool halted = false;
    std::uint64_t exitCode = 0;

    std::vector<RsEntry<Bits>> window; //!< physical slots (hot SoA half)
    /**
     * Cold SoA half of the window, parallel to `window` by slot: the
     * once-per-instruction bookkeeping (pc, branch/value-prediction
     * metadata, latency timestamps) the wakeup scans and policy sweeps
     * never read. Reset together with the hot entry in allocSlot().
     */
    std::vector<RsCold> windowCold;
    std::vector<int> freeSlots;
    SlotRing windowOrder; //!< slots in program (seq) order
    int liveEntries = 0;

    /**
     * Per-prediction-bit subscriber lists feeding the sparse policy
     * sweeps. Maintained under both sweep kinds (note() calls at every
     * mask-gaining site are cheap and keep the invariant checker
     * meaningful in differential runs); consulted only when
     * cfg.sweepKind == SweepKind::Sparse.
     */
    SubscriberIndex<Bits> subsIndex;

    std::array<int, isa::kNumRegs> regTag; //!< youngest producer slot

    /** LSQ: slots of in-flight memory instructions in program order. */
    SlotRing lsq;
    /**
     * The LSQ's stores in program order, as of the current cycle
     * (storeTable()). Completions and retirement, the only stages
     * that change an older store's address, data or presence, run
     * before issue, and dispatch appends only younger entries, so one
     * build serves every load checked or issued in the cycle.
     */
    StoreTable stores;
    std::uint64_t storesCycle = UINT64_MAX; //!< cycle `stores` describes

    /** Per slot: its position in windowOrder's storage (dispatch). */
    std::vector<std::size_t> orderPos;
    /** This cycle's issue candidates by class and age. */
    SelectOrder selectOrder;

    // fetch
    struct FetchedInst
    {
        std::uint64_t pc;
        isa::Inst inst;
        std::uint64_t availableAt;
        bool predTaken;
        std::uint64_t predNextPc;
        std::int64_t traceIndex;
    };
    std::deque<FetchedInst> fetchQueue;
    std::uint64_t fetchPc = 0;
    bool fetchOnCorrectPath = true;
    std::int64_t fetchTraceIdx = 0;
    std::uint64_t fetchResumeAt = 0; //!< stall for icache misses/redirect
    bool fetchSawHalt = false;

    /**
     * Predecoded text: the decode of every word of the program's text
     * segment [textBase, textBase + 4 * textInsts.size()), taken from
     * committed memory at construction and at startFromSnapshot().
     * Fetch uses it for aligned PCs inside the segment until a
     * retiring store writes a text byte (textWritten); from then on
     * it reads and decodes memory like any other fetch.
     */
    std::uint64_t textBase = 0;
    std::vector<std::optional<isa::Inst>> textInsts;
    bool textWritten = false;

    CycleWheel<Completion> completions;
    std::vector<Completion> completionBatch; //!< the bucket being applied
    EventQueue events;

    // ---- event-driven wakeup state ----------------------------------------
    IssueScheduler sched;
    /**
     * Broadcast waiter lists: per producer slot, the (consumer slot,
     * operand index) pairs whose operand sits in Invalid state waiting
     * on that producer's result bus. Replaces the O(window) consumer
     * scan per completed instruction; stale pairs (squashed or
     * re-captured consumers) are filtered by the same busy/seq/tag
     * checks the scan used. Maintained only by the ready-list
     * scheduler; the legacy Scan path keeps the full sweep.
     */
    std::vector<std::vector<std::pair<int, int>>> waiters;
    std::vector<std::pair<int, int>> waiterScratch;

    std::uint64_t retiredCount = 0;
    int dcachePortsUsed = 0; //!< reset each cycle

    // ---- shard run window (setRunWindow / startFromSnapshot) -------------
    /** Trace index of the first instruction this core simulates. */
    std::uint64_t startIndex = 0;
    /** Counters start once this many instructions have retired. */
    std::uint64_t statsFromRetired = 0;
    /** Simulation stops once this many instructions have retired. */
    std::uint64_t stopAfterRetired = UINT64_MAX;
    /** setRunWindow() was called: trim the outcome to the window. */
    bool shardWindowed = false;
    /**
     * True while histogram sampling is live. Scalar counters and the
     * CPI stack are windowed by subtracting their values captured at
     * the cut (exact for monotonically increasing integers); the
     * histograms cannot be subtracted (min/max are not invertible), so
     * their sample sites are gated on this flag instead. Always true
     * in a non-windowed run.
     */
    bool statsOpen = true;
    /** Counter values captured when the stats window opened. */
    struct StatsCut
    {
        std::uint64_t cycleAt = 0;
        CoreStats base; //!< scalar counters + CPI stack at the cut
    };
    StatsCut statsCut;
    /** Open the stats window at the current cycle boundary. */
    void openStatsWindow();

    /**
     * Once-per-dynamic-instance training guards: an instruction that
     * is squashed and refetched must not train the predictors twice
     * (duplicate history pushes desynchronise the contexts).
     */
    std::vector<bool> vpTrained;
    std::vector<bool> bpTrained;

    CoreStats stats_;
    PipelineTracer tracer_;

    /**
     * Hot-path observability handles, bound once at construction: the
     * histograms live inside stats_, and tracing on/off is a config
     * bit — sampling sites go through these members instead of
     * re-deriving either per event.
     */
    obs::Histogram *verifyLatencyHist = nullptr;
    obs::Histogram *invalToReissueHist = nullptr;
    obs::Histogram *specInFlightHist = nullptr;
    bool tracingEnabled = false;

    // ---- observability state ---------------------------------------------
    int specLive = 0; //!< unresolved confident predictions in flight

    /** Why fetch was last redirected (classifies empty-window cycles). */
    enum class RedirectCause : std::uint8_t
    {
        None,   //!< startup ramp, no squash yet
        Branch, //!< branch misprediction squash
        VMisp,  //!< complete-invalidation (value misprediction) squash
    };
    RedirectCause lastRedirect = RedirectCause::None;
    bool fetchStallIcache = false; //!< frontend stalled on an I$ miss
    std::uint64_t retiredAtTickStart = 0;

    /** Detailed per-prediction records (cfg.specLedger only). */
    obs::SpecLedger ledger_;
    /** Live ledger-record index per slot; -1 = none. */
    std::vector<std::int64_t> ledgerIdx;

    /** Absolute counter values at the start of the open interval. */
    struct IntervalCursor
    {
        std::uint64_t cycleStart = 0;
        std::uint64_t occupancySum = 0; //!< accumulates within interval
        std::uint64_t retired = 0;
        std::uint64_t issued = 0;
        std::uint64_t dispatched = 0;
        std::uint64_t condBranches = 0;
        std::uint64_t condMispredicts = 0;
        std::uint64_t squashes = 0;
        std::uint64_t verifyEvents = 0;
        std::uint64_t invalidateEvents = 0;
        std::uint64_t nullifications = 0;
        obs::CpiStack cpi;
    };
    IntervalCursor ivCursor;
    obs::IntervalSeries intervals_;
};


/**
 * The out-of-order core. Each job runs on the BasicOooCore whose mask
 * width maskBitsFor(cfg.windowSize) picks; every call forwards to it.
 */
class OooCore
{
  public:
    /**
     * Build a core for @p prog. The constructor runs the functional
     * pre-execution to obtain the oracle trace.
     */
    OooCore(const assembler::Program &prog, const CoreConfig &config);

    /**
     * Replay constructor: build a core for @p prog with an already
     * recorded dynamic trace (e.g. loaded from a .vst file) instead of
     * re-running the functional pre-execution. The correct path is
     * decode-free — it comes straight from @p recorded — while
     * wrong-path fetch still decodes from @p prog's image, so replay
     * is digest-identical to direct simulation of the same program.
     */
    OooCore(const assembler::Program &prog, arch::ExecTrace recorded,
            const CoreConfig &config);

    /**
     * Shared-trace replay constructor: like the replay constructor but
     * borrowing @p recorded instead of owning a copy, so N shard cores
     * replaying the same multi-gigabyte trace share one instance.
     */
    OooCore(const assembler::Program &prog,
            std::shared_ptr<const arch::ExecTrace> recorded,
            const CoreConfig &config);
    ~OooCore();

    OooCore(const OooCore &) = delete;
    OooCore &operator=(const OooCore &) = delete;

    /** See BasicOooCore for each call. */
    void setPredictionOverride(PredictionOverride override_fn);
    void startFromSnapshot(const SimSnapshot &snap);
    void setRunWindow(std::uint64_t stats_from_retired,
                      std::uint64_t stop_after_retired);
    std::uint64_t statsCutCycle() const;
    SimOutcome run();
    bool tick();
    const CoreStats &stats() const;
    const PipelineTracer &tracer() const;
    std::uint64_t now() const;
    std::uint64_t programLength() const;
    bool checkSweepInvariants(std::string *why = nullptr) const;

  private:
    /** The core at the width maskBitsFor picked. */
    std::variant<std::unique_ptr<BasicOooCore<128>>,
                 std::unique_ptr<BasicOooCore<256>>,
                 std::unique_ptr<BasicOooCore<512>>>
        core_;
};

} // namespace vsim::core

#endif // VSIM_CORE_OOO_CORE_HH

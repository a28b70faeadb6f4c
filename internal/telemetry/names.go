// Code in this file is the canonical metric-name registry enforced by the
// aegis-lint metricname rule: every name passed to a telemetry
// counter/gauge/histogram constructor anywhere in the module must appear
// here as an exported Metric* string constant. Keeping the full name space
// in one reviewed file is what keeps the Prometheus exposition goldens,
// dashboards, and bench tooling stable — renaming or adding a metric is a
// deliberate, diffable change to this file, never an incidental literal
// edit at a call site.
//
// Naming conventions (also enforced by the rule): snake_case throughout;
// counters end in _total; histograms end in a unit suffix (_seconds,
// _bytes, _ns); gauges are instantaneous values with no unit suffix.
// Call sites may keep using string literals as long as the literal matches
// a constant below.

package telemetry

// Facade (aegis.Framework) funnel counters and config gauges.
const (
	MetricAegisCatalogEvents                  = "aegis_catalog_events"
	MetricAegisConfigClipBound                = "aegis_config_clip_bound"
	MetricAegisConfigFuzzCandidates           = "aegis_config_fuzz_candidates"
	MetricAegisConfigProfileRepeats           = "aegis_config_profile_repeats"
	MetricAegisConfigProfileTraceTicks        = "aegis_config_profile_trace_ticks"
	MetricAegisConfigSensitivity              = "aegis_config_sensitivity"
	MetricAegisFuzzCoverSize                  = "aegis_fuzz_cover_size"
	MetricAegisFuzzRunsTotal                  = "aegis_fuzz_runs_total"
	MetricAegisFuzzSegmentLen                 = "aegis_fuzz_segment_len"
	MetricAegisLegalInstructions              = "aegis_legal_instructions"
	MetricAegisProfileEventsRanked            = "aegis_profile_events_ranked"
	MetricAegisProfileRunsTotal               = "aegis_profile_runs_total"
	MetricAegisProfileWarmupRemaining         = "aegis_profile_warmup_remaining"
	MetricAegisProtectDeploysTotal            = "aegis_protect_deploys_total"
	MetricAegisProtectMultiDeploysTotal       = "aegis_protect_multi_deploys_total"
	MetricAegisProtectMultiSkippedEventsTotal = "aegis_protect_multi_skipped_events_total"
)

// Versioned artifact store (internal/artifact): cache funnel, IO timing
// and corruption signal for the offline-pipeline checkpoint files.
const (
	MetricArtifactCacheHitsTotal   = "artifact_cache_hits_total"
	MetricArtifactCacheMissesTotal = "artifact_cache_misses_total"
	MetricArtifactCorruptTotal     = "artifact_corrupt_total"
	MetricArtifactLoadSeconds      = "artifact_load_seconds"
	MetricArtifactWriteSeconds     = "artifact_write_seconds"
	MetricArtifactWritesTotal      = "artifact_writes_total"
)

// Multi-tenant protection daemon (internal/daemon, cmd/aegisd).
const (
	MetricDaemonAttachesTotal        = "daemon_attaches_total"
	MetricDaemonCtlRequestsTotal     = "daemon_ctl_requests_total"
	MetricDaemonDegradedTenantTicks  = "daemon_degraded_tenant_ticks_total"
	MetricDaemonDetachesTotal        = "daemon_detaches_total"
	MetricDaemonEventsEnqueuedTotal  = "daemon_events_enqueued_total"
	MetricDaemonEventsProcessedTotal = "daemon_events_processed_total"
	MetricDaemonEventsShedTotal      = "daemon_events_shed_total"
	MetricDaemonOverloaded           = "daemon_overloaded"
	MetricDaemonQueueDepth           = "daemon_queue_depth"
	MetricDaemonReloadRejectsTotal   = "daemon_reload_rejects_total"
	MetricDaemonReloadsTotal         = "daemon_reloads_total"
	MetricDaemonTenantTicksTotal     = "daemon_tenant_ticks_total"
	MetricDaemonTenants              = "daemon_tenants"
	MetricDaemonTicksTotal           = "daemon_ticks_total"
)

// Fault-injection substrate.
const (
	MetricFaultInjectedTotal = "fault_injected_total"
)

// Flight recorder (internal/telemetry/flight).
const (
	MetricFlightIncidentsTotal = "flight_incidents_total"
	MetricFlightRecordsTotal   = "flight_records_total"
)

// Gadget-fuzzer campaign funnel.
const (
	MetricFuzzerCandidatesConfirmedTotal   = "fuzzer_candidates_confirmed_total"
	MetricFuzzerCandidatesDroppedTotal     = "fuzzer_candidates_dropped_total"
	MetricFuzzerCandidatesPrefilteredTotal = "fuzzer_candidates_prefiltered_total"
	MetricFuzzerCandidatesRejectedTotal    = "fuzzer_candidates_rejected_total"
	MetricFuzzerCandidatesScreenedTotal    = "fuzzer_candidates_screened_total"
	MetricFuzzerCandidatesTriedTotal       = "fuzzer_candidates_tried_total"
	MetricFuzzerConfirmedDelta             = "fuzzer_confirmed_delta"
	MetricFuzzerCoverSeconds               = "fuzzer_cover_seconds"
	MetricFuzzerEventSeconds               = "fuzzer_event_seconds"
	MetricFuzzerEventsSkippedTotal         = "fuzzer_events_skipped_total"
	MetricFuzzerResumeEventsTotal          = "fuzzer_resume_events_total"
	MetricFuzzerScreenMemoTotal            = "fuzzer_screen_memo_total"
)

// Hardware performance counter substrate.
const (
	MetricHpcPmuProgramsTotal = "hpc_pmu_programs_total"
	MetricHpcPmuResetsTotal   = "hpc_pmu_resets_total"
	MetricHpcRdpmcReadsTotal  = "hpc_rdpmc_reads_total"
)

// Online obfuscator tick funnel (single and multi-plan).
const (
	MetricObfuscatorBudgetSaturationsTotal    = "obfuscator_budget_saturations_total"
	MetricObfuscatorClipSaturationsTotal      = "obfuscator_clip_saturations_total"
	MetricObfuscatorCounterRearmsTotal        = "obfuscator_counter_rearms_total"
	MetricObfuscatorDegradedTicksTotal        = "obfuscator_degraded_ticks_total"
	MetricObfuscatorInjectedCountsTotal       = "obfuscator_injected_counts_total"
	MetricObfuscatorInjectedInstructionsTotal = "obfuscator_injected_instructions_total"
	MetricObfuscatorInjectedRepsTotal         = "obfuscator_injected_reps_total"
	MetricObfuscatorInjectedTicksTotal        = "obfuscator_injected_ticks_total"
	MetricObfuscatorMechanismDrawNs           = "obfuscator_mechanism_draw_ns"
	MetricObfuscatorMechanismFallbacksTotal   = "obfuscator_mechanism_fallbacks_total"
	MetricObfuscatorNoInjectionTicksTotal     = "obfuscator_no_injection_ticks_total"
	MetricObfuscatorRetriesTotal              = "obfuscator_retries_total"
	MetricObfuscatorTicksTotal                = "obfuscator_ticks_total"
	MetricObfuscatorZeroDrawTicksTotal        = "obfuscator_zero_draw_ticks_total"
)

// Ops server (internal/ops).
const (
	MetricOpsHTTPRequestsTotal = "ops_http_requests_total"
)

// Worker-pool instrumentation.
const (
	MetricParallelItemErrorsTotal = "parallel_item_errors_total"
	MetricParallelItemsTotal      = "parallel_items_total"
	MetricParallelPoolWorkers     = "parallel_pool_workers"
	MetricParallelShardSeconds    = "parallel_shard_seconds"
	MetricParallelWorkersActive   = "parallel_workers_active"
)

// Offline profiler funnel.
const (
	MetricProfilerMiScoreSeconds       = "profiler_mi_score_seconds"
	MetricProfilerRankDegenerateTotal  = "profiler_rank_degenerate_total"
	MetricProfilerRankedEventsTotal    = "profiler_ranked_events_total"
	MetricProfilerResumeShardsTotal    = "profiler_resume_shards_total"
	MetricProfilerTraceCollectSeconds  = "profiler_trace_collect_seconds"
	MetricProfilerWarmupFilteredTotal  = "profiler_warmup_filtered_total"
	MetricProfilerWarmupRemainingTotal = "profiler_warmup_remaining_total"
	MetricProfilerWarmupRunsTotal      = "profiler_warmup_runs_total"
)

// SEV world scheduler.
const (
	MetricSevTickBudget       = "sev_tick_budget"
	MetricSevVcpuStepsTotal   = "sev_vcpu_steps_total"
	MetricSevVmsLaunchedTotal = "sev_vms_launched_total"
	MetricSevWorldTicksTotal  = "sev_world_ticks_total"
)

package main

import "github.com/warwick-hpsc/tealeaf-go/internal/registry"

// metricDef names one reported metric. The catalog is what the harness
// prints and BENCHMARK.json lists; bench_test.go holds the two together.
type metricDef struct{ name, unit string }

// endToEndDefs are the gated metrics: what a user of the system sees.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"serial_solve_s", "s"},
	{"omp_solve_s", "s"},
	{"mpi_solve_s", "s"},
	{"ops_solve_s", "s"},
	{"ops_tiled_solve_s", "s"},
	{"simgpu_solve_s", "s"},
	{"sweep_solve_s", "s"},
	{"jobs_per_s", "1/s"},
	{"submit_done_p50_ms", "ms"},
	{"submit_done_p90_ms", "ms"},
}

// serialKernels and mpiKernels are the driver kernels whose summed span
// time per pass is reported for manual-serial and manual-mpi.
var (
	serialKernels = []string{"cg_calc_w", "cg_calc_ur", "cg_calc_p", "halo_exchange", "solve_init",
		"set_field", "field_summary", "cheby_iterate", "ppcg_inner", "apply_precond"}
	mpiKernels  = []string{"cg_calc_w", "cg_calc_ur", "cg_calc_p", "halo_exchange", "solve_init", "field_summary"}
	solverKinds = []string{"cg", "jacobi", "chebyshev", "ppcg"}
)

// perLayerDefs are the ungated metrics of single layers, bottom-up.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"kern.triad_gbps", "GB/s"},
		{"kern.operator_row_gbps", "GB/s"},
		{"kern.dot_acc_gbps", "GB/s"},
		{"kern.update_ur_gbps", "GB/s"},
		{"kern.jacobi_row_gbps", "GB/s"},
		{"par.dispatch_ns", "ns"},
		{"par.reduce_sum_ns", "ns"},
		{"par.team_spawn_us", "us"},
		{"par.reduce_allocs", "count"},
		{"comm.halo_inproc_ns", "ns"},
		{"comm.allreduce_inproc_ns", "ns"},
		{"comm.halo_socket_ns", "ns"},
		{"comm.allreduce_socket_ns", "ns"},
		{"comm.halo_allocs", "count"},
		{"comm.world_spawn_us", "us"},
		{"ops.parloop_vs_hand_ratio", "ratio"},
		{"ops.parloop_dispatch_ns", "ns"},
		{"ops.sweeps_per_iter_tiled", "count"},
		{"ops.sweeps_per_iter_untiled", "count"},
		{"kokkos.mdrange_ns_per_cell", "ns"},
		{"raja.kernel2d_ns_per_cell", "ns"},
		{"simgpu.launch_ns", "ns"},
		{"simgpu.stencil_ns_per_cell", "ns"},
	}
	for _, v := range registry.Names() {
		defs = append(defs, metricDef{"backends." + v + ".ns_per_cell_iter", "ns"})
	}
	for _, m := range measured {
		defs = append(defs, metricDef{"registry.cold_start_ms." + m.version, "ms"})
	}
	defs = append(defs, metricDef{"solver.iters_total", "count"}, metricDef{"solver.halo_exchanges_total", "count"})
	for _, s := range solverKinds {
		defs = append(defs, metricDef{"solver.ns_per_iter." + s, "ns"})
	}
	for _, k := range serialKernels {
		defs = append(defs, metricDef{"driver.serial.kernel_s." + k, "s"})
	}
	defs = append(defs, metricDef{"driver.serial.step_overhead_s", "s"})
	for _, k := range mpiKernels {
		defs = append(defs, metricDef{"driver.mpi.kernel_s." + k, "s"})
	}
	return append(defs,
		metricDef{"driver.mpi.step_overhead_s", "s"},
		metricDef{"config.parse_us", "us"},
		metricDef{"config.hash_us", "us"},
		metricDef{"perfmodel.predict_ns", "ns"},
		metricDef{"journal.append_durable_p50_us", "us"},
		metricDef{"journal.append_nosync_ns", "ns"},
		metricDef{"journal.syncs_per_job", "count"},
		metricDef{"journal.replay_records_per_s", "1/s"},
		metricDef{"checkpoint.save_ms", "ms"},
		metricDef{"checkpoint.load_ms", "ms"},
		metricDef{"checkpoint.bytes", "count"},
		metricDef{"serve.ack_p50_ms", "ms"},
		metricDef{"serve.ack_p90_ms", "ms"},
		metricDef{"serve.cold_jobs_per_s", "1/s"},
		metricDef{"serve.replay_s", "s"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.followers", "count"},
		metricDef{"serve.batches", "count"},
		metricDef{"serve.solves", "count"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.evicted", "count"},
		metricDef{"serve.solve_seconds_p50", "s"},
		metricDef{"serve.sched_pred_err_p50", "ratio"},
		metricDef{"obs.scrape_ms", "ms"},
		metricDef{"proc.peak_rss_mb", "MB"},
		metricDef{"proc.alloc_mb", "MB"},
		metricDef{"proc.gc_cycles", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}

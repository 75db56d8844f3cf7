/**
 * @file
 * vspec-tracegen: record dynamic instruction traces (.vst files) from
 * the functional core, for decode-free replay through the timing
 * simulator (vspec-run --trace / vspec-sweep --trace). Every built-in
 * kernel round-trips: replaying its trace is digest-identical to
 * simulating it directly.
 *
 *   vspec-tracegen --workload queens -o queens.vst
 *   vspec-tracegen --asm prog.s --out prog.vst
 *   vspec-tracegen --all --out-dir traces/
 */

#include <cstdio>
#include <string>

#include "cli.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/thread_pool.hh"
#include "vsim/trace/trace_io.hh"
#include "vsim/workloads/workloads.hh"

namespace
{

/** Record @p prog to @p path and re-validate the file end to end. */
void
generate(const vsim::assembler::Program &prog, const std::string &path,
         const std::string &name)
{
    const std::uint64_t n = vsim::trace::recordTrace(prog, path);
    // Re-reading runs the same validating pass the simulator loads
    // through (structure, digest, record sanity), so a bad recording
    // is caught here, not at replay time. The pass splits over one
    // worker per hardware thread, and reports the same at any count.
    vsim::trace::TraceReader reader(
        path, vsim::ThreadPool::defaultThreadCount());
    VSIM_ASSERT(reader.recordCount() == n,
                "trace re-read record count mismatch");
    std::printf("wrote %s: %llu records, %u text words, "
                "%u data bytes (%s)\n",
                path.c_str(), static_cast<unsigned long long>(n),
                reader.header().textWords, reader.header().dataBytes,
                name.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsim;
    const cli::Parsed args(cli::Tracegen, argc, argv);
    const std::string workload = args.text("--workload");
    const std::string asm_file = args.text("--asm");
    const std::string out_path = args.text("--out");
    const std::string out_dir = args.text("--out-dir");
    const int scale = static_cast<int>(args.count("--scale", -1));
    const bool all = args.has("--all");
    if (workload.empty() + asm_file.empty() + !all != 2
        || (all ? (out_dir.empty() || !out_path.empty())
                : (out_path.empty() || !out_dir.empty())))
        args.usage();

    try {
        if (all) {
            for (const auto &w : workloads::all()) {
                generate(workloads::buildProgram(w, scale),
                         out_dir + "/" + w.name + ".vst", w.name);
            }
        } else if (!workload.empty()) {
            generate(workloads::buildProgram(workloads::byName(workload),
                                             scale),
                     out_path, workload);
        } else {
            generate(cli::assembleFile(asm_file), out_path, asm_file);
        }
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}

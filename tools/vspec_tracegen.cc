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
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_counts.hh"
#include "vsim/assembler/assembler.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/thread_pool.hh"
#include "vsim/trace/trace_io.hh"
#include "vsim/workloads/workloads.hh"

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s (--workload NAME | --asm FILE) [--scale N] -o FILE\n"
        "       %s --all [--scale N] --out-dir DIR\n"
        "  --workload NAME   one of:",
        argv0, argv0);
    for (const auto &w : vsim::workloads::all())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(
        stderr,
        "\n"
        "  --asm FILE        assemble and trace a VRISC .s file\n"
        "  --all             trace every built-in workload into "
        "--out-dir\n"
        "  --scale N         workload work factor (default: built-in)\n"
        "  -o, --out FILE    output trace path\n"
        "  --out-dir DIR     output directory for --all "
        "(files are <name>.vst)\n");
}

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
    const cli::CountParser counts{argv[0], usage};

    std::string workload, asm_file, out_path, out_dir;
    int scale = -1;
    bool all = false;

    for (int i = 1; i < argc; ++i) {
        auto need_value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload")) {
            workload = need_value("--workload");
        } else if (!std::strcmp(argv[i], "--asm")) {
            asm_file = need_value("--asm");
        } else if (!std::strcmp(argv[i], "--all")) {
            all = true;
        } else if (!std::strcmp(argv[i], "--scale")) {
            scale = counts.positiveInt("--scale", need_value("--scale"));
        } else if (!std::strcmp(argv[i], "-o")
                   || !std::strcmp(argv[i], "--out")) {
            out_path = need_value("--out");
        } else if (!std::strcmp(argv[i], "--out-dir")) {
            out_dir = need_value("--out-dir");
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    const int sources = (workload.empty() ? 0 : 1)
                        + (asm_file.empty() ? 0 : 1) + (all ? 1 : 0);
    if (sources != 1 || (all ? (out_dir.empty() || !out_path.empty())
                             : (out_path.empty() || !out_dir.empty()))) {
        usage(argv[0]);
        return 2;
    }

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
            std::ifstream in(asm_file);
            if (!in) {
                std::fprintf(stderr, "cannot open %s\n",
                             asm_file.c_str());
                return 1;
            }
            std::ostringstream ss;
            ss << in.rdbuf();
            generate(assembler::assemble(ss.str(), asm_file), out_path,
                     asm_file);
        }
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}

/**
 * @file
 * vspec-asm: assembler front end. Assembles a VRISC .s file and
 * either lists the encoded instructions (with disassembly) or runs it
 * on the functional reference core.
 *
 *   vspec-asm prog.s --list          # addresses, words, disassembly
 *   vspec-asm prog.s --run           # functional execution
 *   vspec-asm prog.s --run --max 1000000
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include "cli.hh"
#include "vsim/arch/functional_core.hh"
#include "vsim/base/logging.hh"
#include "vsim/isa/isa.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;
    const cli::Parsed args(cli::Asm, argc, argv);
    const std::string file = args.text("FILE.s");
    const bool list = args.has("--list"), run = args.has("--run");
    if (file.empty() || (!list && !run))
        args.usage();

    try {
        const assembler::Program prog = cli::assembleFile(file);
        std::printf("%zu instructions, %zu data bytes, entry 0x%llx\n",
                    prog.text.size(), prog.data.size(),
                    static_cast<unsigned long long>(prog.entry));

        if (list) {
            for (std::size_t i = 0; i < prog.text.size(); ++i) {
                const auto inst = isa::decode(prog.text[i]);
                std::printf("%08llx: %08x  %s\n",
                            static_cast<unsigned long long>(
                                prog.textBase + 4 * i),
                            prog.text[i],
                            inst ? isa::disassemble(*inst).c_str()
                                 : "<illegal>");
            }
        }
        if (run) {
            arch::FunctionalCore core(prog);
            const std::uint64_t n =
                core.run(args.count("--max", 100'000'000));
            if (!core.state().output.empty())
                std::printf("output: %s\n",
                            core.state().output.c_str());
            std::printf("halted after %llu instructions, exit code "
                        "%llu\n",
                        static_cast<unsigned long long>(n),
                        static_cast<unsigned long long>(
                            core.state().exitCode));
        }
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}

#include "bee/native_jit.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "storage/page.h"
#include "storage/tuple.h"

extern char** environ;

namespace microspec::bee {

namespace {

/// Caps how much compiler stderr is folded into a Status message; gcc can
/// produce pages of notes for one bad line.
constexpr size_t kMaxStderrCapture = 8 * 1024;

/// Runs `argv` via posix_spawnp with stdout discarded and stderr captured
/// into `stderr_out` (truncated to kMaxStderrCapture). Unlike std::system
/// this neither invokes a shell nor races other threads over SIGCHLD
/// dispositions, so forge workers can compile concurrently.
Status RunCommand(const std::vector<std::string>& argv,
                  std::string* stderr_out) {
  stderr_out->clear();
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  int pipefd[2];
  if (::pipe(pipefd) != 0) return Status::IoError("pipe failed");

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDERR_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipefd[0]);
  posix_spawn_file_actions_addclose(&actions, pipefd[1]);

  pid_t pid = -1;
  int rc = ::posix_spawnp(&pid, cargv[0], &actions, nullptr, cargv.data(),
                          environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipefd[1]);
  if (rc != 0) {
    ::close(pipefd[0]);
    return Status::Internal(std::string("posix_spawnp ") + argv[0] + ": " +
                            std::strerror(rc));
  }

  char buf[1024];
  ssize_t n;
  while ((n = ::read(pipefd[0], buf, sizeof(buf))) > 0) {
    if (stderr_out->size() < kMaxStderrCapture) {
      stderr_out->append(buf, static_cast<size_t>(n));
    }
  }
  ::close(pipefd[0]);
  if (stderr_out->size() > kMaxStderrCapture) {
    stderr_out->resize(kMaxStderrCapture);
    stderr_out->append("\n[stderr truncated]");
  }

  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0) {
    if (errno != EINTR) return Status::Internal("waitpid failed");
  }
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) return Status::OK();
  return Status::Internal(argv[0] + std::string(" exited with status ") +
                          std::to_string(WIFEXITED(wstatus)
                                             ? WEXITSTATUS(wstatus)
                                             : -1));
}

/// The C template of one DeformOp: the statement(s) that load step `s`
/// into the lvalue `o`. Fixed-offset ops fold the verified offset (arg) in
/// as a literal, and kFixedVarlena starts the running cursor `off` from it;
/// dynamic ops first align `off` by the step's verified alignment, then
/// load and advance it; kSection reads slot `arg` of the tuple's data
/// section — a hole of Listing 2.
void LowerDeformStep(const DeformStep& s, const std::string& indent,
                     const std::string& o, std::string* srcp) {
  std::string& src = *srcp;
  const std::string arg = std::to_string(s.arg);
  const std::string at = "tp + " + arg;
  switch (s.op) {
    case DeformOp::kFixed1:
      src += indent + o + " = (Datum)(unsigned char)*(" + at + ");\n";
      return;
    case DeformOp::kFixed4:
      src += indent + "{ int32_t v; memcpy(&v, " + at + ", 4); " + o +
             " = (Datum)(long)v; }\n";
      return;
    case DeformOp::kFixed8:
      src += indent + "memcpy(&" + o + ", " + at + ", 8);\n";
      return;
    case DeformOp::kFixedChar:
      src += indent + o + " = (Datum)(" + at + ");\n";
      return;
    case DeformOp::kFixedVarlena:
      src += indent + o + " = (Datum)(" + at + ");\n";
      src += indent + "{ uint32_t sz; memcpy(&sz, " + at + ", 4); off = " +
             arg + " + sz; }\n";
      return;
    case DeformOp::kSection:
      src += indent + o + " = sec[" + arg + "];\n";
      return;
    default:
      break;  // the dynamic ops below
  }
  if (s.align > 1) {
    const std::string mask = std::to_string(s.align - 1) + "u";
    src += indent + "off = (off + " + mask + ") & ~" + mask + ";\n";
  }
  switch (s.op) {
    case DeformOp::kDyn1:
      src += indent + o + " = (Datum)(unsigned char)tp[off]; off += 1;\n";
      return;
    case DeformOp::kDyn4:
      src += indent + "{ int32_t v; memcpy(&v, tp + off, 4); " + o +
             " = (Datum)(long)v; off += 4; }\n";
      return;
    case DeformOp::kDyn8:
      src += indent + "memcpy(&" + o + ", tp + off, 8); off += 8;\n";
      return;
    case DeformOp::kDynChar:
      src += indent + o + " = (Datum)(tp + off); off += " +
             std::to_string(s.len) + ";\n";
      return;
    case DeformOp::kDynVarlena:
      src += indent + o + " = (Datum)(tp + off);\n";
      src += indent + "{ uint32_t sz; memcpy(&sz, tp + off, 4); off += sz; }\n";
      return;
    default:
      return;  // fixed ops and kSection returned above
  }
}

/// Lowers the fast-path steps once per routine. Each attribute gets its
/// `natts` early-out: `stop` is "return" in the scalar routine and "break"
/// inside the batch routine's per-tuple body (a `return` there would skip
/// the remaining tuples of the page). `null_out` when set emits a
/// per-attribute null clear (the batch routine writes column-major, so
/// there is no contiguous isnull run to memset).
void LowerDeformSteps(const std::vector<DeformStep>& steps,
                      const std::string& indent, const char* stop,
                      const std::function<std::string(int)>& out,
                      const std::function<std::string(int)>& null_out,
                      std::string* src) {
  for (const DeformStep& s : steps) {
    *src += indent + "if (natts < " + std::to_string(s.out + 1) + ") " + stop +
            ";\n";
    if (null_out != nullptr) *src += indent + null_out(s.out) + " = 0;\n";
    LowerDeformStep(s, indent, out(s.out), src);
  }
}

std::string U(uint32_t v) { return std::to_string(v) + "u"; }

/// The C template of one LogStepOp. The checks run inside the `op != 1`
/// block (a delete carries no image); the hoff check reads the `flags`
/// byte the bee-flag check loaded, which always precedes it in the
/// canonical step order the verifier enforces. kApply is the fixed
/// slotted-page mutation bodies for ops 0-3, which depend on no schema.
void LowerLogStep(const LogStep& s, std::string* srcp) {
  std::string& src = *srcp;
  switch (s.op) {
    case LogStepOp::kCheckNatts:
      src += "    if (len < " + U(sizeof(TupleHeader)) + ") return 10;\n";
      src += "    uint16_t natts; memcpy(&natts, img + 0, 2);\n";
      src += "    if (natts != " + U(s.arg) + ") return 11;\n";
      return;
    case LogStepOp::kCheckBeeFlag:
      src += "    unsigned char flags = (unsigned char)img[2];\n";
      src += "    if (((flags & 2u) != 0u) != " + U(s.arg) + ") return 12;\n";
      return;
    case LogStepOp::kCheckHoff:
      src += "    uint16_t hoff; memcpy(&hoff, img + 4, 2);\n";
      src += "    if (hoff != ((flags & 1u) ? " + U(s.arg2) + " : " + U(s.arg) +
             ")) return 13;\n";
      return;
    case LogStepOp::kCheckLen:
      src += "    if (len < " + U(s.arg) + " || len > " + U(s.arg2) +
             ") return 14;\n";
      return;
    case LogStepOp::kApply:
      break;
  }
  const std::string slot_entry = "    unsigned int se = " + U(kPageHeaderSize) +
                                 " + " + U(kPageSlotSize) + " * slot;\n";
  src += "  if (op == 0) {\n";
  src += "    if (slot != sc) return 20;\n";
  src += "    uint16_t fs; memcpy(&fs, page + " + U(kPageFreeStartOffset) +
         ", 2);\n";
  src += "    uint16_t fe; memcpy(&fe, page + " + U(kPageFreeEndOffset) +
         ", 2);\n";
  src += "    unsigned int need = (len + 7u) & ~7u;\n";
  src += "    if ((unsigned int)fe - (unsigned int)fs < need + " +
         U(kPageSlotSize) + ") return 21;\n";
  src += "    fe = (uint16_t)(fe - need);\n";
  src += "    memcpy(page + fe, img, len);\n";
  src += slot_entry;
  src += "    memcpy(page + se, &fe, 2);\n";
  src += "    uint16_t sl = (uint16_t)len;\n";
  src += "    memcpy(page + se + 2u, &sl, 2);\n";
  src += "    fs = (uint16_t)(fs + " + U(kPageSlotSize) + ");\n";
  src += "    sc = (uint16_t)(sc + 1u);\n";
  src += "    memcpy(page + " + U(kPageFreeEndOffset) + ", &fe, 2);\n";
  src += "    memcpy(page + " + U(kPageFreeStartOffset) + ", &fs, 2);\n";
  src += "    memcpy(page + " + U(kPageSlotCountOffset) + ", &sc, 2);\n";
  src += "    return 0;\n";
  src += "  }\n";
  src += "  if (op == 1) {\n";
  src += "    if (slot >= sc) return 30;\n";
  src += slot_entry;
  src += "    uint16_t sl; memcpy(&sl, page + se + 2u, 2);\n";
  src += "    if (sl == 0u) return 31;\n";
  src += "    uint16_t z = 0;\n";
  src += "    memcpy(page + se + 2u, &z, 2);\n";
  src += "    return 0;\n";
  src += "  }\n";
  src += "  if (op == 2) {\n";
  src += "    if (slot >= sc) return 40;\n";
  src += slot_entry;
  src += "    uint16_t so; memcpy(&so, page + se, 2);\n";
  src += "    uint16_t sl; memcpy(&sl, page + se + 2u, 2);\n";
  src += "    if (sl != 0u) return 41;\n";
  src += "    if ((unsigned int)so + len > " + U(kPageSize) + ") return 42;\n";
  src += "    memcpy(page + so, img, len);\n";
  src += "    sl = (uint16_t)len;\n";
  src += "    memcpy(page + se + 2u, &sl, 2);\n";
  src += "    return 0;\n";
  src += "  }\n";
  src += "  if (op == 3) {\n";
  src += "    if (slot >= sc) return 50;\n";
  src += slot_entry;
  src += "    uint16_t so; memcpy(&so, page + se, 2);\n";
  src += "    uint16_t sl; memcpy(&sl, page + se + 2u, 2);\n";
  src += "    if (sl == 0u) return 51;\n";
  src += "    if (((len + 7u) & ~7u) > (((unsigned int)sl + 7u) & ~7u)) "
         "return 52;\n";
  src += "    memcpy(page + so, img, len);\n";
  src += "    sl = (uint16_t)len;\n";
  src += "    memcpy(page + se + 2u, &sl, 2);\n";
  src += "    return 0;\n";
  src += "  }\n";
}

}  // namespace

NativeJit::~NativeJit() {
  for (void* h : handles_) dlclose(h);
}

bool NativeJit::CompilerAvailable() {
  // Magic-static initialization: the probe runs exactly once even when DDL
  // threads and forge workers race the first call.
  static const bool available = [] {
    std::string err;
    return RunCommand({"cc", "--version"}, &err).ok();
  }();
  return available;
}

std::string NativeJit::LowerRelationBee(const std::vector<DeformStep>& deform,
                                        const std::vector<LogStep>& log,
                                        const std::string& symbol) {
  // Every non-section step reads one stored attribute, so the stored width
  // (and with it the no-NULLs header offset) follows from the steps alone.
  int stored_natts = 0;
  bool has_sections = false;
  for (const DeformStep& s : deform) {
    if (s.op == DeformOp::kSection) {
      has_sections = true;
    } else {
      ++stored_natts;
    }
  }
  const std::string hoff =
      std::to_string(TupleHeaderSize(stored_natts, /*has_nulls=*/false));

  std::string src;
  src += "/* GetColumnsToLongs bee routine, generated at schema definition\n"
         "   time. One straight-line statement per attribute; all offsets,\n"
         "   alignments and types are folded in (cf. paper Listing 2). */\n";
  src += "#include <stdint.h>\n#include <string.h>\n";
  src += "typedef unsigned long Datum;\n";
  src += "void " + symbol +
         "(const char* tuple, int natts, Datum* values, char* isnull,\n"
         "    const Datum* const* sections) {\n";
  // Listing 2's "*(long*)isnull = 0" collapse of per-attribute null stores.
  src += "  memset(isnull, 0, (unsigned)natts);\n";
  src += "  const char* tp = tuple + " + hoff + ";\n";
  if (has_sections) {
    src += "  const Datum* sec = sections[(unsigned char)tuple[3]];\n";
  }
  src += "  unsigned off = 0; (void)off; (void)tp;\n";
  LowerDeformSteps(
      deform, "  ", "return",
      [](int i) { return "values[" + std::to_string(i) + "]"; },
      /*null_out=*/nullptr, &src);
  src += "}\n";

  // The GCL-B page-batch variant: the same per-tuple body wrapped in the
  // page loop, writing column-major. Guards `break` out of the per-tuple
  // do/while so partial deform still advances to the next tuple.
  src += "\n/* GCL-B: deforms every live tuple of one pinned page in a\n"
         "   single call; the per-call dispatch is paid once per page. */\n";
  src += "void " + symbol +
         "_b(const char* const* tuples, int ntuples, int natts,\n"
         "    Datum* const* cols, char* const* nulls,\n"
         "    const Datum* const* sections) {\n";
  src += "  for (int r = 0; r < ntuples; ++r) {\n";
  src += "    const char* tuple = tuples[r];\n";
  src += "    const char* tp = tuple + " + hoff + ";\n";
  if (has_sections) {
    src += "    const Datum* sec = sections[(unsigned char)tuple[3]];\n";
  }
  src += "    unsigned off = 0; (void)off; (void)tp;\n";
  src += "    do {\n";
  LowerDeformSteps(
      deform, "      ", "break",
      [](int i) { return "cols[" + std::to_string(i) + "][r]"; },
      [](int i) { return "nulls[" + std::to_string(i) + "][r]"; }, &src);
  src += "    } while (0);\n";
  src += "  }\n";
  src += "}\n";

  src += "\n/* Log-bee applier: one checked page mutation per WAL record.\n"
         "   The image checks fold the stored layout in as literals, the\n"
         "   page bodies fold in the slotted-page header layout; op codes\n"
         "   0=insert 1=delete 2=restore 3=update-in-place. Returns 0 on\n"
         "   success, a positive diagnostic code otherwise. */\n";
  src += "int " + symbol +
         "_la(char* page, int op, unsigned int slot, const char* img,\n"
         "    unsigned int len) {\n";
  src += "  uint16_t sc; memcpy(&sc, page + " + U(kPageSlotCountOffset) +
         ", 2);\n";
  bool in_checks = false;
  for (const LogStep& s : log) {
    const bool check = s.op != LogStepOp::kApply;
    if (check && !in_checks) src += "  if (op != 1) {\n";
    if (!check && in_checks) src += "  }\n";
    in_checks = check;
    LowerLogStep(s, &src);
  }
  if (in_checks) src += "  }\n";
  src += "  return 99;\n";
  src += "}\n";
  return src;
}

Result<NativeGclTriple> NativeJit::Compile(const std::string& source,
                                           const std::string& work_dir,
                                           const std::string& symbol) {
  if (!CompilerAvailable()) {
    return Status::NotSupported("no C compiler on this host");
  }
  std::string c_path = work_dir + "/" + symbol + ".c";
  std::string so_path = work_dir + "/" + symbol + ".so";
  FILE* f = std::fopen(c_path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + c_path);
  std::fwrite(source.data(), 1, source.size(), f);
  std::fclose(f);

  // On any failure below, the partial .c/.so artifacts are removed so a
  // failed compilation cannot leave a stale bee in the on-disk cache.
  auto fail = [&](std::string msg) {
    std::remove(c_path.c_str());
    std::remove(so_path.c_str());
    return Status::Internal(std::move(msg));
  };
  std::string compiler_stderr;
  Status st = RunCommand(
      {"cc", "-O2", "-shared", "-fPIC", "-o", so_path, c_path},
      &compiler_stderr);
  if (!st.ok()) {
    // The captured diagnostics ride along in the Status so an async compile
    // failure is debuggable from forge state instead of silently lost.
    std::string msg = "bee compilation failed (" + st.message() + ")";
    if (!compiler_stderr.empty()) msg += ":\n" + compiler_stderr;
    return fail(std::move(msg));
  }
  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    return fail(std::string("dlopen failed: ") + dlerror());
  }
  // All three entry points must resolve before the handle is cached: the
  // scalar/batch deform pair and the log applier publish together, so a
  // source missing any of them never half-publishes.
  void* scalar = dlsym(handle, symbol.c_str());
  void* batch = dlsym(handle, (symbol + "_b").c_str());
  void* la = dlsym(handle, (symbol + "_la").c_str());
  if (scalar == nullptr || batch == nullptr || la == nullptr) {
    dlclose(handle);
    return fail("bee symbol missing: " + symbol +
                (scalar != nullptr ? (batch == nullptr ? "_b" : "_la") : ""));
  }
  {
    std::lock_guard<std::mutex> guard(mutex_);
    handles_.push_back(handle);
  }
  NativeGclTriple triple;
  triple.scalar = reinterpret_cast<NativeGclFn>(scalar);
  triple.batch = reinterpret_cast<NativeGclBatchFn>(batch);
  triple.log_apply = reinterpret_cast<NativeLogApplyFn>(la);
  return triple;
}

}  // namespace microspec::bee

// Fixture suite for manet-lint (tools/lint): one positive and one negative
// snippet per determinism rule, the comment/string-awareness of the lexer,
// inline-suppression handling (reason mandatory), and policy-file validation
// through support/json.hpp. The snippets are deliberately tiny — the linter
// is token-based, so a fragment is as good as a full translation unit.

#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace manet::lint {
namespace {

std::vector<Diagnostic> lint(const std::string& path, const std::string& text,
                             const Policy& policy = {}) {
  return lint_source(path, text, policy);
}

/// All diagnostics with the given rule id.
std::size_t count_rule(const std::vector<Diagnostic>& diagnostics, const std::string& rule) {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == rule) ++n;
  }
  return n;
}

TEST(LintRuleTable, IsWellFormed) {
  std::set<std::string> ids;
  for (const Rule& rule : rules()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate rule id " << rule.id;
    EXPECT_FALSE(rule.summary.empty()) << rule.id;
    EXPECT_FALSE(rule.scopes.empty()) << rule.id;
    EXPECT_FALSE(rule.patterns.empty()) << rule.id;
    EXPECT_EQ(find_rule(rule.id), &rule);
  }
  EXPECT_EQ(find_rule("no-such-rule"), nullptr);
  // The rules the determinism contract documents must all exist.
  for (const char* id : {"locale-parse", "locale-format", "nondet-random", "nondet-time",
                         "nondet-ordering", "thread-confinement", "simd-confinement",
                         "process-control", "socket-confinement", "env-confinement"}) {
    EXPECT_NE(find_rule(id), nullptr) << id;
  }
}

// ----- locale-parse -------------------------------------------------------

TEST(LintLocaleParse, FlagsStdStodAndBareAtof) {
  const auto diags = lint("src/core/foo.cpp",
                          "double a = std::stod(text);\n"
                          "double b = atof(text.c_str());\n");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "locale-parse");
  EXPECT_EQ(diags[0].line, 1u);
  EXPECT_EQ(diags[1].line, 2u);
}

TEST(LintLocaleParse, CleanOnParseDoubleAndSimilarNames) {
  const auto diags = lint("src/core/foo.cpp",
                          "auto a = parse_double(text);\n"
                          "auto b = my_atof_like(text);\n"
                          "int stod = 3;  // a variable, not a call\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintLocaleParse, AllowedInsideNumericHpp) {
  EXPECT_TRUE(lint("src/support/numeric.hpp", "double a = std::stod(text);\n").empty());
}

// ----- locale-format ------------------------------------------------------

TEST(LintLocaleFormat, FlagsSetprecisionAndStdFixed) {
  const auto diags =
      lint("bench/fig2.cpp", "out << std::fixed << std::setprecision(3) << value;\n");
  EXPECT_EQ(count_rule(diags, "locale-format"), 2u);
}

TEST(LintLocaleFormat, CleanOnCharsFormatFixedAndSetw) {
  const auto diags = lint("src/support/x.cpp",
                          "auto r = std::to_chars(b, e, v, std::chars_format::fixed, 3);\n"
                          "out << std::setw(12) << cell;\n");
  EXPECT_TRUE(diags.empty());
}

// ----- nondet-random ------------------------------------------------------

TEST(LintNondetRandom, FlagsRandomDeviceAndRandCalls) {
  const auto diags = lint("src/sim/foo.cpp",
                          "std::random_device rd;\n"
                          "int r = rand();\n"
                          "srand(42);\n");
  EXPECT_EQ(count_rule(diags, "nondet-random"), 3u);
}

TEST(LintNondetRandom, CleanOnSeededEngineAndMemberRand) {
  const auto diags = lint("src/sim/foo.cpp",
                          "Xoshiro256StarStar gen(substream_seed(root, trial));\n"
                          "int r = model.rand();  // member, not ::rand\n"
                          "int rand = 3;          // variable, no call\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintNondetRandom, FlagsStdDistributionAdaptors) {
  // std::*_distribution draw sequences are implementation-defined, so they
  // break the same-seed-same-result contract across standard libraries.
  // Fading/deviate draws must go through support/rng substreams instead.
  const auto diags = lint("src/graph/foo.cpp",
                          "std::normal_distribution<double> z(0.0, 1.0);\n"
                          "std::lognormal_distribution<double> g(0.0, sigma);\n"
                          "std::uniform_real_distribution<double> u(0.0, 1.0);\n"
                          "std::exponential_distribution<double> e(lambda);\n");
  EXPECT_EQ(count_rule(diags, "nondet-random"), 4u);
}

TEST(LintNondetRandom, DistributionBanCoversTestsAndBenches) {
  EXPECT_EQ(count_rule(lint("tests/foo_test.cpp",
                            "std::uniform_int_distribution<int> d(0, 9);\n"),
                       "nondet-random"),
            1u);
  EXPECT_EQ(count_rule(lint("bench/foo.cpp",
                            "std::poisson_distribution<int> d(4.0);\n"),
                       "nondet-random"),
            1u);
}

TEST(LintNondetRandom, CleanOnDistributionLikeIdentifiers) {
  // Substring matches must not fire: only the exact component names are
  // banned, not words that merely contain "distribution".
  const auto diags = lint("src/occupancy/foo.cpp",
                          "auto empty_cells_distribution = histogram();\n"
                          "double distribution = 0.5;\n"
                          "// prose: the critical-range distribution is sampled\n");
  EXPECT_TRUE(diags.empty());
}

// ----- nondet-time --------------------------------------------------------

TEST(LintNondetTime, FlagsClockReadsAndChrono) {
  const auto diags = lint("src/core/foo.cpp",
                          "auto t0 = std::chrono::steady_clock::now();\n"
                          "std::time_t t1 = time(nullptr);\n");
  EXPECT_EQ(count_rule(diags, "nondet-time"), 2u);
  EXPECT_EQ(diags[0].line, 1u);
}

TEST(LintNondetTime, CleanOnTimeVariablesMembersAndTestScope) {
  EXPECT_TRUE(lint("src/core/foo.cpp",
                   "double time = 3.0;\n"
                   "advance(time);\n"
                   "auto d = trace.time();  // member access\n")
                  .empty());
  // Tests are outside the rule's scope: gtest timeouts may read clocks.
  EXPECT_TRUE(lint("tests/foo_test.cpp", "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
  // The metrics layer is the designated seam.
  EXPECT_TRUE(lint("src/support/metrics.hpp", "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
}

// ----- nondet-ordering ----------------------------------------------------

TEST(LintNondetOrdering, FlagsUnorderedContainersIncludingTheInclude) {
  const auto diags = lint("src/graph/foo.cpp",
                          "#include <unordered_map>\n"
                          "std::unordered_map<int, int> degree;\n");
  EXPECT_EQ(count_rule(diags, "nondet-ordering"), 2u);
}

TEST(LintNondetOrdering, CleanOnOrderedContainersAndOutsideSrc) {
  EXPECT_TRUE(lint("src/graph/foo.cpp", "std::map<int, int> degree;\n").empty());
  // Scope is src/ only: a test may hash-bucket scratch data.
  EXPECT_TRUE(lint("tests/foo_test.cpp", "std::unordered_set<int> seen;\n").empty());
}

// ----- thread-confinement -------------------------------------------------

TEST(LintThreadConfinement, FlagsPrimitivesOutsideTheEngine) {
  const auto diags = lint("src/core/foo.cpp",
                          "#include <thread>\n"
                          "std::mutex lock;\n"
                          "std::atomic<int> counter{0};\n");
  EXPECT_EQ(count_rule(diags, "thread-confinement"), 3u);
}

TEST(LintThreadConfinement, CleanInsideParallelAndOutsideSrc) {
  EXPECT_TRUE(lint("src/support/parallel.cpp", "std::mutex lock;\n").empty());
  EXPECT_TRUE(lint("tests/foo_test.cpp", "std::thread t([] {});\n").empty());
  EXPECT_TRUE(lint("src/core/foo.cpp", "int progress_mutex_count = 0;\n").empty());
}

// ----- simd-confinement ---------------------------------------------------

TEST(LintSimdConfinement, FlagsIntrinsicsHeadersAndProbesOutsideTheKernelSeam) {
  const auto diags = lint("src/core/foo.cpp",
                          "#include <immintrin.h>\n"
                          "__m256d acc = _mm256_setzero_pd();\n"
                          "bool ok = __builtin_cpu_supports(\"avx2\");\n");
  // Line 2 carries two banned runs (__m256d and the _mm256_ call); one
  // diagnostic each.
  EXPECT_EQ(count_rule(diags, "simd-confinement"), 4u);
}

TEST(LintSimdConfinement, PrefixMatchCoversTheOpenEndedIntrinsicFamily) {
  const auto diags = lint("bench/foo.cpp",
                          "auto a = _mm512_add_pd(x, y);\n"
                          "__m128i v = _mm_set1_epi32(1);\n");
  EXPECT_EQ(count_rule(diags, "simd-confinement"), 3u);
}

TEST(LintSimdConfinement, AllowedInsideDistanceKernelsHpp) {
  EXPECT_TRUE(lint("src/geometry/distance_kernels.hpp",
                   "#include <immintrin.h>\n"
                   "__m256d q0 = _mm256_set1_pd(q[0]);\n")
                  .empty());
}

TEST(LintSimdConfinement, CleanOnLookAlikeIdentifiers) {
  // Names that merely *contain* an intrinsic-looking substring, or banned
  // components reached as member accesses, must not flag.
  EXPECT_TRUE(lint("src/core/foo.cpp",
                   "int comm_count = 0;\n"
                   "double ommitted = simd_width_free_name;\n"
                   "obj._mm_like_member();\n")
                  .empty());
}

// ----- process-control ----------------------------------------------------

TEST(LintProcessControl, FlagsExitAndAbortCalls) {
  const auto diags = lint("src/sim/foo.cpp",
                          "if (bad) std::exit(1);\n"
                          "if (worse) abort();\n");
  EXPECT_EQ(count_rule(diags, "process-control"), 2u);
}

TEST(LintProcessControl, CleanOnKillHookSeamAndPlainIdentifiers) {
  EXPECT_TRUE(lint("src/campaign/campaign.cpp", "std::_Exit(kKillExitCode);\n").empty());
  EXPECT_TRUE(lint("src/sim/foo.cpp",
                   "int exit_code = run();\n"
                   "throw ConfigError(\"fail\");  // exceptions, not exit()\n")
                  .empty());
}

// ----- socket-confinement -------------------------------------------------

TEST(LintSocketConfinement, FlagsSocketAndProcessSpawnSyscalls) {
  const auto diags = lint("src/service/server.cpp",
                          "int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n"
                          "::connect(fd, address, length);\n"
                          "FILE* p = popen(\"uname\", \"r\");\n");
  EXPECT_EQ(count_rule(diags, "socket-confinement"), 3u);
}

TEST(LintSocketConfinement, CoversToolsAndTests) {
  EXPECT_EQ(count_rule(lint("tools/manetd/main.cpp", "::socketpair(d, t, 0, fds);\n"),
                       "socket-confinement"),
            1u);
  EXPECT_EQ(count_rule(lint("tests/manetd_test.cpp", "fork();\n"), "socket-confinement"),
            1u);
}

TEST(LintSocketConfinement, AllowedInsideTheSocketSeam) {
  EXPECT_TRUE(lint("src/service/socket.cpp",
                   "int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n"
                   "::bind(fd, address, length);\n"
                   "::listen(fd, 16);\n")
                  .empty());
}

TEST(LintSocketConfinement, CleanOnWrapperNamesAndNonCallUses) {
  EXPECT_TRUE(lint("src/service/server.cpp",
                   "Socket client = listener.wait_client();\n"
                   "client.send_all(response);\n"
                   "int socket_count = 3;  // a variable, not the syscall\n"
                   "auto stream = dial_unix(path);\n")
                  .empty());
}

// ----- env-confinement ----------------------------------------------------

TEST(LintEnvConfinement, FlagsEnvironmentReadsAndWrites) {
  const auto diags = lint("src/topology/foo.cpp",
                          "const char* mode = std::getenv(\"MANET_MODE\");\n"
                          "const char* safe = secure_getenv(\"HOME\");\n"
                          "::setenv(\"A\", \"1\", 1);\n"
                          "putenv(buffer);\n"
                          "unsetenv(\"A\");\n");
  EXPECT_EQ(count_rule(diags, "env-confinement"), 5u);
  // Benches and tools are in scope too; tests may set up their environment.
  EXPECT_EQ(count_rule(lint("bench/foo.cpp", "auto v = std::getenv(\"X\");\n"),
                       "env-confinement"),
            1u);
  EXPECT_EQ(count_rule(lint("tools/manetd/main.cpp", "auto v = getenv(\"X\");\n"),
                       "env-confinement"),
            1u);
  EXPECT_TRUE(lint("tests/foo_test.cpp", "setenv(\"MANET_THREADS\", \"8\", 1);\n").empty());
}

TEST(LintEnvConfinement, AllowedInsideParallelCpp) {
  EXPECT_TRUE(
      lint("src/support/parallel.cpp", "const char* text = std::getenv(\"MANET_THREADS\");\n")
          .empty());
}

TEST(LintEnvConfinement, CleanOnLookAlikeIdentifiers) {
  EXPECT_TRUE(lint("src/core/foo.cpp",
                   "const char* getenv_result = nullptr;\n"
                   "int setenv = 0;  // a variable, not the call\n"
                   "auto v = config.getenv(\"X\");  // member access\n"
                   "auto w = read_env_override(\"Y\");\n")
                  .empty());
}

// ----- lexer: comments, strings, raw strings ------------------------------

TEST(LintLexer, BannedNamesInCommentsAndLiteralsAreIgnored) {
  const auto diags = lint("src/core/foo.cpp",
                          "// std::stod(text) would be wrong here\n"
                          "/* std::mutex guard; rand(); */\n"
                          "const char* msg = \"call srand() then time(nullptr)\";\n"
                          "const char* raw = R\"(std::random_device rd;)\";\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintLexer, DigitSeparatorsDoNotDesyncTheLexer) {
  // If 1'000'000 were taken for a char literal, everything after it would be
  // swallowed as literal text and the violation on line 2 would vanish.
  const auto diags = lint("src/core/foo.cpp",
                          "constexpr int kBig = 1'000'000;\n"
                          "std::mutex lock;\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "thread-confinement");
  EXPECT_EQ(diags[0].line, 2u);
}

// ----- suppressions -------------------------------------------------------

TEST(LintSuppression, TrailingCommentSuppressesItsLine) {
  const auto diags = lint(
      "src/core/foo.cpp",
      "std::mutex lock;  // manet-lint: allow(thread-confinement) — scratch demo state\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintSuppression, WholeLineCommentSuppressesTheNextLine) {
  const auto diags = lint("src/core/foo.cpp",
                          "// manet-lint: allow(nondet-time) — demo telemetry only\n"
                          "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintSuppression, CommentBlockReachesTheNextCodeLine) {
  // The marker may open a multi-line comment block: the shield lands on the
  // first line that actually carries code.
  const auto diags = lint("src/core/foo.cpp",
                          "// manet-lint: allow(thread-confinement) — counter names\n"
                          "// temp files only and never reaches persisted bytes.\n"
                          "\n"
                          "std::atomic<int> counter{0};\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintSuppression, SuppressesOnlyTheNamedRuleAndLine) {
  const auto diags = lint(
      "src/core/foo.cpp",
      "std::mutex lock;  // manet-lint: allow(nondet-time) — wrong rule on purpose\n"
      "std::mutex other;\n");
  EXPECT_EQ(count_rule(diags, "thread-confinement"), 2u);
}

TEST(LintSuppression, MultipleRulesInOneComment) {
  const auto diags = lint("src/core/foo.cpp",
                          "// manet-lint: allow(thread-confinement, nondet-time) — both demo\n"
                          "std::atomic<int> c{int(std::chrono::steady_clock::now()"
                          ".time_since_epoch().count())};\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintSuppression, MissingReasonIsAViolationAndDoesNotSuppress) {
  const auto diags =
      lint("src/core/foo.cpp", "std::mutex lock;  // manet-lint: allow(thread-confinement)\n");
  EXPECT_EQ(count_rule(diags, "lint-suppression"), 1u);
  EXPECT_EQ(count_rule(diags, "thread-confinement"), 1u);
}

TEST(LintSuppression, UnknownRuleIsReported) {
  const auto diags = lint("src/core/foo.cpp",
                          "int x = 0;  // manet-lint: allow(no-such-rule) — because\n");
  EXPECT_EQ(count_rule(diags, "lint-suppression"), 1u);
}

TEST(LintSuppression, MalformedAllowIsReported) {
  const auto diags = lint("src/core/foo.cpp", "int x = 0;  // manet-lint: allow mutex\n");
  EXPECT_EQ(count_rule(diags, "lint-suppression"), 1u);
}

// ----- policy file --------------------------------------------------------

TEST(LintPolicy, ValidPolicyParsesAndAllows) {
  const Policy policy = parse_policy(
      "{\"schema_version\": 1, \"allow\": [{\"rule\": \"thread-confinement\", "
      "\"file\": \"src/core/foo.cpp\", \"reason\": \"fixture\"}]}");
  ASSERT_EQ(policy.allow.size(), 1u);
  EXPECT_EQ(policy.allow[0].rule, "thread-confinement");
  EXPECT_TRUE(lint("src/core/foo.cpp", "std::mutex lock;\n", policy).empty());
  // The grant is per (rule, file): other files and rules stay enforced.
  EXPECT_EQ(lint("src/core/bar.cpp", "std::mutex lock;\n", policy).size(), 1u);
  EXPECT_EQ(lint("src/core/foo.cpp", "std::exit(1);\n", policy).size(), 1u);
}

TEST(LintPolicy, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_policy("not json"), ConfigError);
  EXPECT_THROW(parse_policy("{\"allow\": []}"), ConfigError);  // no schema_version
  EXPECT_THROW(parse_policy("{\"schema_version\": 2, \"allow\": []}"), ConfigError);
  EXPECT_THROW(parse_policy("{\"schema_version\": 1, \"allow\": [], \"extra\": 1}"),
               ConfigError);
  // Unknown rule id.
  EXPECT_THROW(parse_policy("{\"schema_version\": 1, \"allow\": [{\"rule\": \"nope\", "
                            "\"file\": \"src/a.cpp\", \"reason\": \"x\"}]}"),
               ConfigError);
  // Missing reason.
  EXPECT_THROW(parse_policy("{\"schema_version\": 1, \"allow\": [{\"rule\": "
                            "\"nondet-time\", \"file\": \"src/a.cpp\"}]}"),
               ConfigError);
  // Unknown entry key.
  EXPECT_THROW(parse_policy("{\"schema_version\": 1, \"allow\": [{\"rule\": "
                            "\"nondet-time\", \"file\": \"src/a.cpp\", \"reason\": \"x\", "
                            "\"why\": \"y\"}]}"),
               ConfigError);
}

TEST(LintPolicy, ReportsAllowEntriesWhoseFileIsNotScanned) {
  const Policy policy = parse_policy(
      "{\"schema_version\": 1, \"allow\": ["
      "{\"rule\": \"nondet-time\", \"file\": \"src/core/foo.cpp\", \"reason\": \"x\"}, "
      "{\"rule\": \"nondet-time\", \"file\": \"bench/gone.cpp\", \"reason\": \"y\"}]}");
  const std::vector<std::string> scanned = {"bench/fig2.cpp", "src/core/foo.cpp"};
  const std::vector<PolicyEntry> stale = stale_allow_entries(policy, scanned);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].file, "bench/gone.cpp");
  EXPECT_EQ(stale[0].rule, "nondet-time");

  const std::vector<std::string> all = {"bench/gone.cpp", "src/core/foo.cpp"};
  EXPECT_TRUE(stale_allow_entries(policy, all).empty());
}

}  // namespace
}  // namespace manet::lint

#include "util/ini.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace leime::util {
namespace {

constexpr const char* kSample = R"(
# campus scenario
[scenario]
model = inception      ; which DNN
duration = 120.5
policy = LEIME
adaptive = yes

[device]
flops_gflops = 0.6
rate = 1.5

[device]
flops_gflops = 6
rate = 0.5
)";

TEST(Ini, ParsesSectionsAndValues) {
  const auto ini = IniFile::parse_string(kSample);
  ASSERT_EQ(ini.sections().size(), 3u);
  const auto& sc = ini.only("scenario");
  EXPECT_EQ(sc.get("model"), "inception");
  EXPECT_DOUBLE_EQ(sc.get_double("duration"), 120.5);
  EXPECT_TRUE(sc.get_bool("adaptive", false));
  EXPECT_EQ(sc.get("missing", "dflt"), "dflt");
}

TEST(Ini, RepeatedSectionsKeptInOrder) {
  const auto ini = IniFile::parse_string(kSample);
  const auto devices = ini.all("device");
  ASSERT_EQ(devices.size(), 2u);
  EXPECT_DOUBLE_EQ(devices[0]->get_double("flops_gflops"), 0.6);
  EXPECT_DOUBLE_EQ(devices[1]->get_double("rate"), 0.5);
}

TEST(Ini, OnlyRejectsMissingAndDuplicated) {
  const auto ini = IniFile::parse_string(kSample);
  EXPECT_THROW(ini.only("nope"), std::invalid_argument);
  EXPECT_THROW(ini.only("device"), std::invalid_argument);
  EXPECT_EQ(ini.find("nope"), nullptr);
  EXPECT_NE(ini.find("device"), nullptr);
}

TEST(Ini, CommentsAndWhitespace) {
  const auto ini = IniFile::parse_string(
      "[s]\n  key =  spaced value  # trailing\n; full line\n");
  EXPECT_EQ(ini.only("s").get("key"), "spaced value");
}

TEST(Ini, TypedGetterErrors) {
  const auto ini = IniFile::parse_string("[s]\nx = abc\nf = 1.5\n");
  const auto& s = ini.only("s");
  EXPECT_THROW(s.get_double("x"), std::invalid_argument);
  EXPECT_THROW(s.get_double("missing"), std::invalid_argument);
  EXPECT_THROW(s.get_int("f"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(s.get_double("missing", 7.0), 7.0);
  EXPECT_EQ(s.get_int("missing", 3), 3);
  EXPECT_THROW(s.get_bool("x", false), std::invalid_argument);
}

// get_int parses a double, then casts it. A value outside long long's
// range (or NaN) must throw before the cast: the cast itself would be
// undefined behaviour, which UBSan's float-cast-overflow check reports.
TEST(Ini, GetIntRejectsValuesOutsideLongLongRange) {
  const auto ini = IniFile::parse_string(
      "[s]\nhuge = 1e30\nneg = -1e30\nnan = nan\ninf = inf\n"
      "ninf = -inf\nedge = 9223372036854775808\n"
      "low = -9223372036854775808\nbig = 4294967297\n");
  const auto& s = ini.only("s");
  for (const char* key : {"huge", "neg", "nan", "inf", "ninf", "edge"}) {
    SCOPED_TRACE(key);
    try {
      s.get_int(key);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("out of integer range"),
                std::string::npos)
          << e.what();
    }
  }
  // -2^63 is the one endpoint long long can hold.
  EXPECT_EQ(s.get_int("low"), std::numeric_limits<long long>::min());
  EXPECT_EQ(s.get_int("big"), 4294967297LL);
}

TEST(Ini, GetInt32RejectsValuesOutsideIntRange) {
  const auto ini = IniFile::parse_string(
      "[s]\nwrap = 4294967297\nlow = -2147483649\nmax = 2147483647\n"
      "min = -2147483648\nhuge = 1e30\nfrac = 1.5\n");
  const auto& s = ini.only("s");
  // 4294967297 = 2^32 + 1 would narrow to 1 under a plain static_cast.
  EXPECT_THROW(s.get_int32("wrap", 0), std::invalid_argument);
  EXPECT_THROW(s.get_int32("low", 0), std::invalid_argument);
  EXPECT_THROW(s.get_int32("huge", 0), std::invalid_argument);
  EXPECT_THROW(s.get_int32("frac", 0), std::invalid_argument);
  EXPECT_EQ(s.get_int32("max", 0), std::numeric_limits<int>::max());
  EXPECT_EQ(s.get_int32("min", 0), std::numeric_limits<int>::min());
  EXPECT_EQ(s.get_int32("missing", 7), 7);
}

TEST(Ini, MalformedInput) {
  EXPECT_THROW(IniFile::parse_string("key = 1\n"), std::invalid_argument);
  EXPECT_THROW(IniFile::parse_string("[s\n"), std::invalid_argument);
  EXPECT_THROW(IniFile::parse_string("[]\n"), std::invalid_argument);
  EXPECT_THROW(IniFile::parse_string("[s]\nno_equals\n"),
               std::invalid_argument);
  EXPECT_THROW(IniFile::parse_string("[s]\n= v\n"), std::invalid_argument);
  EXPECT_THROW(IniFile::parse_file("/nonexistent/file.ini"),
               std::runtime_error);
}

TEST(Ini, LastDuplicateKeyWins) {
  const auto ini = IniFile::parse_string("[s]\nk = 1\nk = 2\n");
  EXPECT_EQ(ini.only("s").get("k"), "2");
}

TEST(Ini, RequireKnownKeysAndSectionsNameTheTypo) {
  const auto ini = IniFile::parse_string("[a]\nx = 1\ny = 2\n[b]\n");
  EXPECT_NO_THROW(ini.only("a").require_known_keys({"x", "y", "z"}));
  EXPECT_NO_THROW(ini.require_known_sections({"a", "b"}));
  try {
    ini.only("a").require_known_keys({"x"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "[a] unknown key 'y' (valid keys: x)");
  }
  try {
    ini.require_known_sections({"a", "c"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "ini: unknown section [b] (valid sections: a c)");
  }
}

}  // namespace
}  // namespace leime::util

#include "src/util/config.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfiso {
namespace {

TEST(ConfigTest, ParsesKeysCommentsAndBlanks) {
  auto result = ConfigMap::Parse(
      "# PerfIso cluster config\n"
      "cpu.buffer_cores = 8\n"
      "\n"
      "io.hdfs_limit_mbps = 60.5\n"
      "kill_switch = false\n"
      "name = IndexServe-Row1\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::map<std::string, std::string> expected = {{"cpu.buffer_cores", "8"},
                                                       {"io.hdfs_limit_mbps", "60.5"},
                                                       {"kill_switch", "false"},
                                                       {"name", "IndexServe-Row1"}};
  EXPECT_EQ(result->entries(), expected);
}

TEST(ConfigTest, MissingKeysReturnDefaults) {
  auto config = ConfigMap::Parse("");
  ASSERT_TRUE(config.ok());
  ConfigReader reader(*config);
  int64_t count = 42;
  bool on = true;
  reader.Field("absent", count);
  reader.Field("absent", on);
  EXPECT_TRUE(reader.Finish().ok());
  EXPECT_EQ(count, 42);
  EXPECT_TRUE(on);
}

TEST(ConfigTest, MalformedLineReportsLineNumber) {
  auto result = ConfigMap::Parse("a = 1\nbroken line\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(ConfigTest, MalformedIntIsError) {
  auto config = ConfigMap::Parse("x = notanumber\n");
  ASSERT_TRUE(config.ok());
  ConfigReader reader(*config);
  int64_t x = 5;
  reader.Field("x", x);
  const Status status = reader.Finish();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("config key \"x\""), std::string::npos) << status.ToString();
  EXPECT_EQ(x, 5);
}

TEST(ConfigTest, MalformedBoolIsError) {
  bool x = false;
  EXPECT_FALSE(ParseValue("yes", &x).ok());
}

TEST(ConfigTest, SerializeRoundTrip) {
  ConfigMap config;
  config.Set("cpu.buffer_cores", 8);
  config.Set("kill_switch", true);
  config.Set("rate", 0.25);
  config.Set("mode", "blind");
  auto reparsed = ConfigMap::Parse(config.Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->entries(), config.entries());
}

TEST(ConfigTest, DoubleRoundTripIsBitExact) {
  // Set writes a double as the shortest text that parses back to the identical
  // double — a serialized scenario must describe the same experiment, not a
  // 6-significant-digit neighbor.
  ConfigMap config;
  for (double value : {2000.125, 0.123456789012345, 1.0 / 3.0, 5e8, 160e6}) {
    config.Set("v", value);
    auto reparsed = ConfigMap::Parse(config.Serialize());
    ASSERT_TRUE(reparsed.ok());
    double back = 0;
    ASSERT_TRUE(ParseValue(reparsed->entries().at("v"), &back).ok());
    EXPECT_EQ(back, value);
  }
  // Friendly values still serialize compactly.
  config.Set("v", 0.25);
  EXPECT_EQ(config.entries().at("v"), "0.25");
}

TEST(ConfigTest, EqualsSignInValueKept) {
  auto config = ConfigMap::Parse("expr = a=b\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->entries().at("expr"), "a=b");
}


// --- Field tables ------------------------------------------------------------

TEST(ConfigTest, IntegersMustFitTheDestinationType) {
  int narrow = 7;
  EXPECT_FALSE(ParseValue("4294967304", &narrow).ok());  // 2^32 + 8 used to wrap to 8
  EXPECT_FALSE(ParseValue("2147483648", &narrow).ok());
  EXPECT_FALSE(ParseValue("1.0", &narrow).ok());
  EXPECT_FALSE(ParseValue("", &narrow).ok());
  EXPECT_EQ(narrow, 7);  // unchanged on error
  ASSERT_TRUE(ParseValue("-2147483648", &narrow).ok());
  EXPECT_EQ(narrow, std::numeric_limits<int>::min());

  int64_t wide = 0;
  EXPECT_FALSE(ParseValue("9223372036854775808", &wide).ok());
  ASSERT_TRUE(ParseValue("9223372036854775807", &wide).ok());
  EXPECT_EQ(wide, std::numeric_limits<int64_t>::max());

  uint64_t seed = 0;
  EXPECT_FALSE(ParseValue("-1", &seed).ok());  // no wrap to 2^64 - 1
  ASSERT_TRUE(ParseValue("18446744073709551615", &seed).ok());
  EXPECT_EQ(seed, std::numeric_limits<uint64_t>::max());
}

TEST(ConfigTest, DoublesMustBeFinite) {
  double value = 0.5;
  for (const char* text : {"nan", "-nan", "inf", "-inf", "1e999", "", "0.25x"}) {
    EXPECT_FALSE(ParseValue(text, &value).ok()) << text;
  }
  EXPECT_EQ(value, 0.5);
  ASSERT_TRUE(ParseValue("-1.5e-3", &value).ok());
  EXPECT_EQ(value, -1.5e-3);
}

enum class Color { kRed, kGreen };

const auto& EnumNames(Color) {
  static constexpr EnumName<Color> kNames[] = {{Color::kRed, "red"}, {Color::kGreen, "green"}};
  return kNames;
}

TEST(ConfigTest, EnumNamesRoundTripThroughOneTable) {
  for (Color color : {Color::kRed, Color::kGreen}) {
    auto parsed = ParseEnum<Color>(NameOf(color));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, color);
  }
  const auto unknown = ParseEnum<Color>("blue");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("red|green"), std::string::npos);
  EXPECT_EQ(FormatValue(Color::kGreen), "green");
}

struct Item {
  int id = 0;
  double weight = 1.0;
  Color color = Color::kRed;
};

// A struct exercising every visitor call, one key each.
struct Sample {
  std::string name;
  bool on = false;
  int count = 3;
  uint64_t seed = 9;
  SimDuration period = FromMillis(1);
  Color color = Color::kRed;
  double rate = 0.5;
  std::vector<Item> keyed;
  std::vector<Item> listed;

  template <class V>
  void Fields(V& v) {
    v.Field("name", name);
    v.Flag("on", on);
    if (!on) {
      return;
    }
    v.Field("count", count);
    v.Field("seed", seed);
    v.Micros("period_us", period);
    v.Field("color", color);
    if (color == Color::kGreen) {
      v.Field("rate", rate);
    }
    v.Scoped("items.", [&] {
      v.Keyed("id.", keyed, &Item::id, [](V& item_v, Item& item) {
        item_v.Field("weight", item.weight);
      });
      v.List("list", listed, [](auto& field, Item& item) {
        field(item.color);
        field(item.id);
        field(item.weight);
      });
    });
  }
};

TEST(ConfigTest, FieldTableRoundTripsThroughBothVisitors) {
  Sample sample;
  sample.name = "s";
  sample.on = true;
  sample.count = -4;
  sample.seed = std::numeric_limits<uint64_t>::max();
  sample.period = FromMicros(750);
  sample.color = Color::kGreen;
  sample.rate = 0.125;
  sample.keyed = {Item{12, 2.5, Color::kRed}, Item{3, 0.75, Color::kRed}};
  sample.listed = {Item{1, 1.5, Color::kGreen}, Item{-2, 4, Color::kRed}};

  ConfigMap map;
  WriteFields(sample, &map);
  const std::map<std::string, std::string> expected = {
      {"color", "green"},
      {"count", "-4"},
      {"items.id.12.weight", "2.5"},
      {"items.id.3.weight", "0.75"},
      {"items.list", "green:1:1.5,red:-2:4"},
      {"name", "s"},
      {"on", "true"},
      {"period_us", "750"},
      {"rate", "0.125"},
      {"seed", "18446744073709551615"},
  };
  EXPECT_EQ(map.entries(), expected);

  auto back = ReadFields<Sample>(map);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->name, "s");
  EXPECT_EQ(back->count, -4);
  EXPECT_EQ(back->seed, sample.seed);
  EXPECT_EQ(back->period, FromMicros(750));
  EXPECT_EQ(back->rate, 0.125);
  ASSERT_EQ(back->keyed.size(), 2u);  // sorted by id
  EXPECT_EQ(back->keyed[0].id, 3);
  EXPECT_EQ(back->keyed[1].weight, 2.5);
  ASSERT_EQ(back->listed.size(), 2u);
  EXPECT_EQ(back->listed[1].id, -2);
  EXPECT_EQ(back->listed[0].color, Color::kGreen);

  ConfigMap again;
  WriteFields(*back, &again);
  EXPECT_EQ(again.entries(), map.entries());
}

TEST(ConfigTest, WriterOmitsEmptyStringsFalseFlagsAndEmptyLists) {
  ConfigMap map;
  WriteFields(Sample{}, &map);
  EXPECT_TRUE(map.entries().empty());
}

StatusOr<Sample> ReadSample(const std::vector<std::pair<std::string, std::string>>& keys) {
  ConfigMap map;
  map.Set("on", "true");
  for (const auto& [key, value] : keys) {
    map.Set(key, value);
  }
  return ReadFields<Sample>(map);
}

TEST(ConfigTest, ReaderRejectsEveryKeyTheTableDidNotConsume) {
  EXPECT_TRUE(ReadSample({{"count", "1"}}).ok());
  EXPECT_FALSE(ReadSample({{"cuont", "1"}}).ok());  // typo
  EXPECT_FALSE(ReadSample({{"rate", "1"}}).ok());   // inapplicable: color is red
  EXPECT_TRUE(ReadSample({{"color", "green"}, {"rate", "1"}}).ok());

  ConfigMap off;
  off.Set("count", "1");  // inapplicable: `on` is off
  const Status status = ReadFields<Sample>(off).status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown or inapplicable config key: count"),
            std::string::npos)
      << status.ToString();
}

TEST(ConfigTest, MicrosMustFitTheNanosecondClock) {
  EXPECT_FALSE(ReadSample({{"period_us", "9223372036854775807"}}).ok());
  EXPECT_FALSE(ReadSample({{"period_us", "-9223372036854776"}}).ok());
  auto max = ReadSample({{"period_us", "9223372036854775"}});
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->period, 9223372036854775 * kMicrosecond);
  auto zero = ReadSample({{"period_us", "0"}});
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->period, 0);
}

TEST(ConfigTest, ListEntriesGoThroughTheTypedPath) {
  EXPECT_TRUE(ReadSample({{"items.list", "red:1:2"}}).ok());
  EXPECT_FALSE(ReadSample({{"items.list", ""}}).ok());               // present but empty
  EXPECT_FALSE(ReadSample({{"items.list", "red:1:2,"}}).ok());       // trailing comma
  EXPECT_FALSE(ReadSample({{"items.list", "red:1:2,,red:1:2"}}).ok());  // empty entry
  EXPECT_FALSE(ReadSample({{"items.list", "red:1"}}).ok());          // too few fields
  EXPECT_FALSE(ReadSample({{"items.list", "red:1:2:3"}}).ok());      // too many
  EXPECT_FALSE(ReadSample({{"items.list", "red:0.9:2"}}).ok());      // id is an int
  EXPECT_FALSE(ReadSample({{"items.list", "red:1:nan"}}).ok());
  EXPECT_FALSE(ReadSample({{"items.list", "blue:1:2"}}).ok());
}

TEST(ConfigTest, KeyedIdsGoThroughTheTypedPath) {
  EXPECT_TRUE(ReadSample({{"items.id.-4.weight", "2"}}).ok());
  EXPECT_FALSE(ReadSample({{"items.id.x.weight", "2"}}).ok());
  EXPECT_FALSE(ReadSample({{"items.id.4294967297.weight", "2"}}).ok());
  EXPECT_FALSE(ReadSample({{"items.id.4", "2"}}).ok());          // no field
  EXPECT_FALSE(ReadSample({{"items.id.04.weight", "2"}}).ok());  // not canonical
  EXPECT_FALSE(ReadSample({{"items.id.4.wieght", "2"}}).ok());
  EXPECT_FALSE(ReadSample({{"items.id.4.weight", "inf"}}).ok());
}

}  // namespace
}  // namespace perfiso

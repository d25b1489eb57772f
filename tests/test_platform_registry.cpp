/**
 * @file
 * Tests for the platform registry: alias resolution, spec-string
 * parameter parsing (good and malformed), unknown-name reporting,
 * descriptor-driven routing parity with the old name-prefix behavior,
 * and zero-edit registration of a platform from this translation unit.
 */
#include <gtest/gtest.h>

#include "accel/cpu_gpu.hpp"
#include "accel/registry.hpp"
#include "serve/backend_router.hpp"

using namespace gcod;
using namespace gcod::serve;

namespace {

/**
 * A platform registered HERE, in a test translation unit, with zero
 * edits anywhere else in the library — the registry's core promise.
 */
const PlatformRegistrar kTestChip{[] {
    PlatformDescriptor d;
    d.name = "TestChip-900";
    d.family = "test";
    d.summary = "synthetic platform registered by the unit test";
    d.phaseOrder = PhaseOrder::AggrThenComb;
    d.consumesWorkload = false;
    d.deviceClass = DeviceClass::Asic;
    // Default rank (1000) appends after the paper lineup, keeping the
    // built-ins' presentation order intact.
    PlatformConfig c;
    c.name = "TestChip-900";
    c.freqGHz = 0.9;
    c.numPEs = 900;
    c.onChipBytes = 1 << 20;
    c.offChipGBs = 100.0;
    c.boardPowerW = 9.0;
    d.defaultConfig = c;
    // Reinterpret the common `pes` key (the consume-first contract):
    // this chip packs PEs in pairs, so the spec counts pairs.
    d.configure = [](PlatformConfig &cfg, PlatformParams &p) {
        cfg.numPEs = 2.0 * p.takeDouble("pes", cfg.numPEs / 2.0);
    };
    d.build = [](PlatformConfig cfg) {
        return std::make_unique<FrameworkModel>(std::move(cfg));
    };
    return d;
}()};

std::shared_ptr<const ArtifactBundle>
coraBundle()
{
    static std::shared_ptr<const ArtifactBundle> bundle = [] {
        GcodOptions opts;
        return buildArtifact(
            ArtifactKey{"Cora", "GCN", hashGcodOptions(opts)}, opts, 0.25,
            11);
    }();
    return bundle;
}

} // namespace

// ------------------------------------------------------------- listing
TEST(PlatformRegistry, PreservesPaperPresentationOrder)
{
    const std::vector<std::string> paper = {
        "PyG-CPU", "PyG-GPU", "DGL-CPU",  "DGL-GPU",
        "HyGCN",   "AWB-GCN", "ZC706",    "KCU1500",
        "AlveoU50", "GCoD",   "GCoD(8-bit)"};
    std::vector<std::string> names = allPlatformNames();
    // The test platform registered above appends *after* the lineup.
    ASSERT_GE(names.size(), paper.size());
    for (size_t i = 0; i < paper.size(); ++i)
        EXPECT_EQ(names[i], paper[i]) << "position " << i;
    EXPECT_EQ(names.back(), "TestChip-900");
}

// ----------------------------------------------------------- resolution
TEST(PlatformRegistry, AliasResolvesToParameterizedBuild)
{
    const PlatformDescriptor &d = platformDescriptor("GCoD(8-bit)");
    EXPECT_EQ(d.name, "GCoD"); // canonical platform behind the alias
    auto m = makeAccelerator("GCoD(8-bit)");
    EXPECT_EQ(m->config().name, "GCoD(8-bit)");
    EXPECT_EQ(m->config().dataBits, 8);
    EXPECT_EQ(m->config().numPEs, 10240);
}

TEST(PlatformRegistry, SpecStringAppliesOverrides)
{
    auto m = makeAccelerator("GCoD@freq=0.5,onchip=16MiB,bits=8");
    EXPECT_EQ(m->config().name, "GCoD@freq=0.5,onchip=16MiB,bits=8");
    EXPECT_DOUBLE_EQ(m->config().freqGHz, 0.5);
    EXPECT_DOUBLE_EQ(m->config().onChipBytes, 16.0 * 1024 * 1024);
    EXPECT_EQ(m->config().dataBits, 8);
    // bits=8 picks the published 8-bit design point (Tab. V).
    EXPECT_EQ(m->config().numPEs, 10240);
}

TEST(PlatformRegistry, SpecOverridesComposeWithAliasOverrides)
{
    auto m = makeAccelerator("GCoD(8-bit)@freq=0.1");
    EXPECT_EQ(m->config().dataBits, 8);
    EXPECT_EQ(m->config().numPEs, 10240);
    EXPECT_DOUBLE_EQ(m->config().freqGHz, 0.1);
}

TEST(PlatformRegistry, CommonOverridesApplyToAnyPlatform)
{
    auto m = makeAccelerator("HyGCN@bw=512,pes=2048,bits=16,power=10");
    EXPECT_DOUBLE_EQ(m->config().offChipGBs, 512.0);
    EXPECT_DOUBLE_EQ(m->config().numPEs, 2048.0);
    EXPECT_EQ(m->config().dataBits, 16);
    EXPECT_DOUBLE_EQ(m->config().boardPowerW, 10.0);
    // Untouched fields keep the platform's defaults.
    EXPECT_DOUBLE_EQ(m->config().freqGHz, makeHyGcnConfig().freqGHz);
}

TEST(PlatformRegistry, DecimalAndBinaryByteSuffixes)
{
    EXPECT_DOUBLE_EQ(makeAccelerator("GCoD@onchip=21MB")->config().onChipBytes,
                     21e6);
    EXPECT_DOUBLE_EQ(
        makeAccelerator("GCoD@onchip=2GiB")->config().onChipBytes,
        2.0 * 1024 * 1024 * 1024);
}

// --------------------------------------------------------------- errors
TEST(PlatformRegistry, MalformedSpecsAreUserErrors)
{
    EXPECT_THROW(makeAccelerator("GCoD@"), std::runtime_error);
    EXPECT_THROW(makeAccelerator("GCoD@freq"), std::runtime_error);
    EXPECT_THROW(makeAccelerator("GCoD@freq="), std::runtime_error);
    EXPECT_THROW(makeAccelerator("GCoD@=1"), std::runtime_error);
    EXPECT_THROW(makeAccelerator("GCoD@freq=fast"), std::runtime_error);
    EXPECT_THROW(makeAccelerator("GCoD@onchip=16Qi"), std::runtime_error);
    EXPECT_THROW(makeAccelerator("GCoD@bits=13"), std::runtime_error);
    EXPECT_THROW(makeAccelerator("GCoD@bits=8,bits=32"),
                 std::runtime_error);
    EXPECT_THROW(makeAccelerator("GCoD@freq=-1"), std::runtime_error);
    EXPECT_THROW(makeAccelerator("HyGCN@sparse_eff=1.5"),
                 std::runtime_error);
}

TEST(PlatformRegistry, UnknownKeyNamesTheSupportedOnes)
{
    try {
        makeAccelerator("GCoD@nope=1");
        FAIL() << "expected a runtime_error";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("nope"), std::string::npos);
        EXPECT_NE(msg.find("freq"), std::string::npos);
        EXPECT_NE(msg.find("onchip"), std::string::npos);
    }
}

TEST(PlatformRegistry, UnknownPlatformListsRegistryAndSuggests)
{
    try {
        makeAccelerator("HyGNC"); // transposition typo
        FAIL() << "expected a runtime_error";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown platform 'HyGNC'"), std::string::npos);
        EXPECT_NE(msg.find("AWB-GCN"), std::string::npos); // the full list
        EXPECT_NE(msg.find("did you mean 'HyGCN'"), std::string::npos);
    }
}

TEST(PlatformRegistry, ContainsAcceptsNamesAliasesAndSpecs)
{
    PlatformRegistry &r = PlatformRegistry::instance();
    EXPECT_TRUE(r.contains("GCoD"));
    EXPECT_TRUE(r.contains("GCoD(8-bit)"));
    EXPECT_TRUE(r.contains("GCoD@bits=8"));
    EXPECT_TRUE(r.contains("TestChip-900"));
    EXPECT_FALSE(r.contains("NoSuchChip"));
    EXPECT_FALSE(r.contains("NoSuchChip@freq=1"));
    // Malformed override lists don't "contain" either (no stderr spam).
    EXPECT_FALSE(r.contains("GCoD@"));
    EXPECT_FALSE(r.contains("GCoD@freq"));
    EXPECT_FALSE(r.contains("GCoD@bits=8,bits=32"));
}

// --------------------------------------------------- descriptor queries
TEST(PlatformRegistry, CapabilitiesMatchLegacyNameRules)
{
    // Parity with the retired string matching: only the GCoD family
    // consumed the workload descriptor, and only HyGCN aggregated first.
    for (const auto &name : allPlatformNames()) {
        const PlatformDescriptor &d = platformDescriptor(name);
        bool legacy_gcod = name.rfind("GCoD", 0) == 0;
        EXPECT_EQ(d.consumesWorkload, legacy_gcod) << name;
        if (name.compare("TestChip-900") != 0) {
            bool legacy_aggr_first = name.compare("HyGCN") == 0;
            EXPECT_EQ(d.phaseOrder == PhaseOrder::AggrThenComb,
                      legacy_aggr_first)
                << name;
        }
    }
    EXPECT_EQ(platformDescriptor("GCoD@bits=8").name, "GCoD");
    EXPECT_TRUE(platformConsumesWorkload("GCoD@bits=8"));
}

TEST(PlatformRegistry, DescriptorMetadataIsComplete)
{
    for (const PlatformDescriptor *d :
         PlatformRegistry::instance().descriptors()) {
        EXPECT_FALSE(d->name.empty());
        EXPECT_FALSE(d->family.empty()) << d->name;
        EXPECT_FALSE(d->summary.empty()) << d->name;
        EXPECT_GT(d->defaultConfig.numPEs, 0.0) << d->name;
        EXPECT_GT(d->defaultConfig.freqGHz, 0.0) << d->name;
        EXPECT_STRNE(deviceClassName(d->deviceClass), "unknown") << d->name;
    }
}

// ---------------------------------------------------------- serving use
TEST(PlatformRegistry, RouterReadsCapabilitiesFromDescriptors)
{
    BackendRouter router({"GCoD", "GCoD@bits=8", "HyGCN"});
    EXPECT_TRUE(router.usesWorkload(0));
    EXPECT_TRUE(router.usesWorkload(1));
    EXPECT_FALSE(router.usesWorkload(2));
    EXPECT_EQ(router.descriptor(2).phaseOrder, PhaseOrder::AggrThenComb);
    EXPECT_EQ(router.name(1), "GCoD@bits=8");

    auto bundle = coraBundle();
    // The workload-consuming backends see the processed input.
    EXPECT_EQ(&router.inputFor(0, *bundle), &bundle->gcodIn);
    EXPECT_EQ(&router.inputFor(2, *bundle), &bundle->raw);
    // The 8-bit variant (2.5x PEs, half the traffic) can't be slower.
    EXPECT_LE(router.estimateSeconds(1, *bundle),
              router.estimateSeconds(0, *bundle));
    for (int i = 0; i < int(router.numBackends()); ++i)
        EXPECT_GT(router.estimateSeconds(i, *bundle), 0.0);
}

TEST(PlatformRegistry, TestTuPlatformIsConstructibleAndRoutable)
{
    auto m = makeAccelerator("TestChip-900");
    EXPECT_EQ(m->config().name, "TestChip-900");
    EXPECT_DOUBLE_EQ(m->config().numPEs, 900.0);

    // Spec-string parameterization works on it immediately, and the
    // family configure() hook shadows the generic `pes` treatment: a
    // key it consumed must not be re-applied by the common overrides.
    EXPECT_DOUBLE_EQ(makeAccelerator("TestChip-900@pes=128")
                         ->config()
                         .numPEs,
                     256.0);

    BackendRouter router({"TestChip-900"});
    RouteDecision d = router.choose(router.estimateAll(*coraBundle()));
    EXPECT_EQ(d.backend, 0);
    EXPECT_EQ(d.name, "TestChip-900");
    EXPECT_GT(d.estimatedSeconds, 0.0);
}

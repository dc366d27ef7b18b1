#include "trainbox/server_builder.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace tb {

using workload::PrepStage;
using workload::stageCategory;

namespace {

/** Host CPU cost of programming one staged DMA (core-sec/sample). */
constexpr double kDmaSetupCpu = 1.0e-5;

/** Host CPU cost per sample when devices run the datapath (P2P). */
constexpr double kP2pControlCpu = 5.0e-6;

/**
 * Host CPU cost of serializing + writing one checkpoint byte
 * (core-sec/byte, ~1 core per GB/s). Host-staged drains only: there the
 * host process owns the checkpoint write path, whereas clustered boxes
 * drain FPGA-staged snapshots to their SSDs without host involvement.
 */
constexpr double kCkptSerializeCpu = 1.0e-9;

/**
 * Host CPU cost of one CRC32C-checked byte (core-sec/byte; ~10 GB/s
 * per core with the hardware CRC instruction). Charged by the inserted
 * integrity stages on host-staged chains.
 */
constexpr double kCrcCpuPerByte = 1.0e-10;

/**
 * Engine-time tax of an inline checksum generate/verify pass on a prep
 * engine, as a fraction of one sample's engine time. The FPGA streams
 * the CRC alongside the data, so the tax is small but not free.
 */
constexpr double kIntegrityEngineTax = 0.02;

/** Hops of a PCIe transfer, plus host DRAM when it is staged there. */
unsigned
transferHops(bool p2p)
{
    return corruptionBit(CorruptionKind::PcieLinkError) |
           (p2p ? 0u : corruptionBit(CorruptionKind::HostDramFlip));
}

/**
 * The devices one prep chain runs over. With @c p2p the data moves
 * SSD -> prep engine -> accelerator by peer-to-peer DMA; without it
 * every hop is staged through host DRAM. No prep engines means the
 * host CPU prepares the data (Baseline), and its stages then compete
 * for cores by fair share.
 */
struct Chain
{
    bool p2p;
    const std::vector<NvmeSsd *> &ssds;
    const std::vector<PrepAccelerator *> &preps;
    const std::vector<NnAccelerator *> &accs;

    bool cpuPrepared() const { return preps.empty(); }
};

/** Shared state while assembling one server. */
struct Builder
{
    Server &s;
    const ServerConfig &cfg;
    const workload::PrepDemand &d;

    std::size_t nAcc;
    std::size_t accPerGroup;
    std::size_t nGroups;
    Rate engineRate;

    /** Per-group device assignments. */
    std::vector<std::vector<NnAccelerator *>> groupAccs;
    std::vector<std::vector<PrepAccelerator *>> groupPreps;
    std::vector<std::vector<NvmeSsd *>> groupSsds;

    explicit Builder(Server &server)
        : s(server), cfg(server.cfg), d(server.demand)
    {
        nAcc = cfg.numAccelerators;
        accPerGroup = std::min<std::size_t>(cfg.box.accPerBox, nAcc);
        nGroups = divCeil(nAcc, accPerGroup);
        engineRate = cfg.preset == ArchPreset::BaselineAccGpu
            ? d.gpuChainRate : d.fpgaChainRate;
        groupAccs.resize(nGroups);
        groupPreps.resize(nGroups);
        groupSsds.resize(nGroups);
    }

    double stageCpu(PrepStage st) const
    {
        auto it = d.cpuByStage.find(st);
        return it == d.cpuByStage.end() ? 0.0 : it->second;
    }

    double stageMem(PrepStage st) const
    {
        auto it = d.memByStage.find(st);
        return it == d.memByStage.end() ? 0.0 : it->second;
    }

    double
    cpuCap(double core_sec) const
    {
        return core_sec > 0.0
            ? cfg.maxPrepParallelism / core_sec : 0.0;
    }

    /**
     * Fair-share weight for a CPU-bound stage: inversely proportional
     * to its per-sample cost, so concurrent stages split core *time*
     * equally (OS-scheduler semantics) and stage wall time scales with
     * stage work.
     */
    static double
    cpuFair(double core_sec)
    {
        return core_sec > 0.0 ? 1.0e-4 / core_sec : 1.0;
    }

    /** Cap @p st at the prep cores and weight it by @p core_sec. */
    void
    cpuBound(StageTemplate &st, double core_sec) const
    {
        st.rateCap = cpuCap(core_sec);
        st.fairWeight = cpuFair(core_sec);
    }

    /** Insert checksum generate/verify stages into the chains? */
    bool integrityOn() const
    {
        return cfg.faults.enabled && cfg.faults.integrityChecks;
    }

    // --- Stage kinds (base unit: one sample unless noted) --------------

    /** Read one sample striped over the SSDs, charging @p cpu. */
    StageTemplate
    ssdRead(const Chain &c, double cpu) const
    {
        const double ssd_share = 1.0 / static_cast<double>(c.ssds.size());
        const double prep_share =
            c.p2p ? 1.0 / static_cast<double>(c.preps.size()) : 0.0;
        StageTemplate st;
        st.name = "ssd_read";
        st.category = stageCategory(PrepStage::SsdRead);
        DemandSet ds;
        for (auto *ssd : c.ssds) {
            ds.add(ssd->readDemand(d.ssdBytes * ssd_share).resource,
                   d.ssdBytes * ssd_share);
            if (c.p2p) {
                // Direct SSD -> prep-engine DMA (P2P handler on FPGA).
                for (auto *prep : c.preps)
                    ds.add(s.topo->routeDemands(
                               ssd->node(), prep->node(),
                               d.ssdBytes * ssd_share * prep_share));
            } else {
                ds.add(s.topo->hostRouteDemands(ssd->node(), false,
                                                d.ssdBytes * ssd_share));
            }
        }
        if (!c.p2p)
            ds.add(s.hostMem->resource(), d.ssdBytes);
        ds.add(s.cpu->resource(), cpu);
        if (c.cpuPrepared())
            st.fairWeight = cpuFair(cpu);
        st.corruptionHops = corruptionBit(CorruptionKind::SsdBitFlip) |
                            transferHops(c.p2p);
        st.demandsPerSample = ds.build();
        return st;
    }

    /**
     * Checksum generate (@p source) or verify stage. P2P chains stream
     * the CRC through the prep engines and verify at accelerator ingest
     * for control CPU only; host-staged chains run it on the host CPU.
     */
    StageTemplate
    integrity(const Chain &c, bool source) const
    {
        StageTemplate st;
        st.name = source ? "integrity_src" : "integrity_sink";
        st.category = "integrity";
        st.verifiesIntegrity = true;
        DemandSet ds;
        if (c.p2p) {
            if (source) {
                const double prep_share =
                    1.0 / static_cast<double>(c.preps.size());
                for (auto *prep : c.preps)
                    ds.add(prep->engine(), prep_share * kIntegrityEngineTax);
            }
            ds.add(s.cpu->resource(), kP2pControlCpu);
        } else {
            const double bytes = source ? d.ssdBytes : d.preparedBytes;
            const double cpu = bytes * kCrcCpuPerByte;
            ds.add(s.cpu->resource(), cpu);
            ds.add(s.hostMem->resource(), bytes);
            if (c.cpuPrepared())
                cpuBound(st, cpu);
        }
        st.demandsPerSample = ds.build();
        return st;
    }

    /** One host-CPU prep stage (Baseline formatting or augmentation). */
    StageTemplate
    cpuPrep(PrepStage kind) const
    {
        StageTemplate st;
        st.name = stageCategory(kind);
        st.category = stageCategory(kind);
        DemandSet ds;
        ds.add(s.cpu->resource(), stageCpu(kind));
        ds.add(s.hostMem->resource(), stageMem(kind));
        st.demandsPerSample = ds.build();
        cpuBound(st, stageCpu(kind));
        st.corruptionHops = corruptionBit(CorruptionKind::HostDramFlip);
        // CPU decode touches every byte: the framework loader's software
        // validation catches silent flips here (the protection the P2P
        // path gives up).
        st.verifiesIntegrity = kind == PrepStage::Formatting;
        return st;
    }

    /**
     * Staged DMA between host DRAM and the prep engines: the read
     * samples in (@p toPrep), the prepared samples back out.
     */
    StageTemplate
    stagedCopy(const std::vector<PrepAccelerator *> &preps, bool toPrep) const
    {
        const double bytes = toPrep ? d.ssdBytes : d.preparedBytes;
        const double prep_share = 1.0 / static_cast<double>(preps.size());
        StageTemplate st;
        st.name = toPrep ? "copy_to_prep" : "copy_from_prep";
        st.category = "data_copy";
        DemandSet ds;
        ds.add(s.hostMem->resource(), bytes);
        ds.add(s.cpu->resource(), kDmaSetupCpu);
        for (auto *prep : preps)
            ds.add(s.topo->hostRouteDemands(prep->node(), toPrep,
                                            bytes * prep_share));
        st.corruptionHops = transferHops(false);
        st.demandsPerSample = ds.build();
        return st;
    }

    /** Offloaded formatting + augmentation striped over @p engines. */
    StageTemplate
    engineFormatting(const std::vector<FluidResource *> &engines) const
    {
        const double share = 1.0 / static_cast<double>(engines.size());
        StageTemplate st;
        st.name = "formatting";
        st.category = stageCategory(PrepStage::Formatting);
        DemandSet ds;
        for (auto *engine : engines)
            ds.add(engine, share);
        st.demandsPerSample = ds.build();
        st.corruptionHops = corruptionBit(CorruptionKind::FpgaUpset);
        return st;
    }

    /**
     * Ethernet hop between @p preps' ports and the prep-pool: the read
     * samples out (@p send), the prepared samples back.
     */
    StageTemplate
    poolHop(const std::vector<PrepAccelerator *> &preps, bool send) const
    {
        const double bytes = send ? d.ssdBytes : d.preparedBytes;
        const double prep_share = 1.0 / static_cast<double>(preps.size());
        const auto &pool = s.pool->fpgas();
        const double pool_share = 1.0 / static_cast<double>(pool.size());
        StageTemplate st;
        st.name = send ? "pool_send" : "pool_recv";
        st.category = "data_copy";
        DemandSet ds;
        for (auto *prep : preps)
            ds.add(prep->ethernetPort(), bytes * prep_share);
        ds.add(s.pool->fabric(), bytes);
        for (const auto &f : pool)
            ds.add(f.port, bytes * pool_share);
        st.demandsPerSample = ds.build();
        return st;
    }

    /** Deliver one prepared sample to the accelerators, charging @p cpu. */
    StageTemplate
    dataLoad(const Chain &c, double cpu) const
    {
        const double acc_share = 1.0 / static_cast<double>(c.accs.size());
        StageTemplate st;
        st.name = "data_load";
        st.category = stageCategory(PrepStage::DataLoad);
        DemandSet ds;
        if (c.p2p) {
            // Direct prep engine -> accelerator DMA.
            const double prep_share =
                1.0 / static_cast<double>(c.preps.size());
            for (auto *prep : c.preps)
                for (auto *acc : c.accs)
                    ds.add(s.topo->routeDemands(prep->node(), acc->node(),
                                                d.preparedBytes *
                                                    prep_share * acc_share));
        } else {
            ds.add(s.hostMem->resource(), d.preparedBytes);
            for (auto *acc : c.accs)
                ds.add(s.topo->hostRouteDemands(acc->node(), true,
                                                d.preparedBytes * acc_share));
        }
        ds.add(s.cpu->resource(), cpu);
        st.corruptionHops = transferHops(c.p2p);
        st.demandsPerSample = ds.build();
        if (c.cpuPrepared())
            cpuBound(st, cpu);
        return st;
    }

    /** Framework overheads: host CPU only, capped at the prep cores. */
    StageTemplate
    others(const Chain &c) const
    {
        const double cpu =
            c.p2p ? kP2pControlCpu : stageCpu(PrepStage::Others);
        StageTemplate st;
        st.name = "others";
        st.category = stageCategory(PrepStage::Others);
        DemandSet ds;
        ds.add(s.cpu->resource(), cpu);
        st.demandsPerSample = ds.build();
        if (c.cpuPrepared())
            cpuBound(st, cpu);
        else
            st.rateCap = cpuCap(cpu);
        return st;
    }

    /**
     * Checkpoint drain of one byte onto the chain's SSDs. Host-staged,
     * the host serializes the snapshot into DRAM and funnels it through
     * the RC; P2P, the prep engines write it over the box switch, which
     * opposes the read direction and never crosses the RC.
     */
    StageTemplate
    checkpointWrite(const Chain &c) const
    {
        const double ssd_share = 1.0 / static_cast<double>(c.ssds.size());
        const double prep_share =
            c.p2p ? 1.0 / static_cast<double>(c.preps.size()) : 0.0;
        StageTemplate st;
        st.name = "ckpt_write";
        st.category = "checkpoint";
        // The drain flows in bytes while prep flows in samples; under
        // progressive filling a frozen flow's rate is level*weight, so
        // weight by one sample's bytes to give the drain the fair share
        // of one prep stream on every contended resource.
        st.fairWeight = d.ssdBytes;
        DemandSet ds;
        if (!c.p2p) {
            ds.add(s.hostMem->resource(), 1.0);
            ds.add(s.cpu->resource(), kCkptSerializeCpu);
        }
        for (auto *ssd : c.ssds) {
            ds.add(ssd->writeDemand(ssd_share).resource, ssd_share);
            ds.add(ssd->writeReadInterference(ssd_share).resource,
                   ssd_share * NvmeSsd::kWriteReadInterference);
            if (c.p2p) {
                for (auto *prep : c.preps)
                    ds.add(s.topo->routeDemands(prep->node(), ssd->node(),
                                                ssd_share * prep_share));
            } else {
                ds.add(s.topo->hostRouteDemands(ssd->node(), true,
                                                ssd_share));
            }
        }
        st.demandsPerSample = ds.build();
        return st;
    }

    /**
     * Shard append from the host-DRAM ingest buffer onto @p ssds (the
     * buffer fills from the host NIC, so every appended byte crosses
     * the RC). It pays the shard write amplification plus the
     * write->read interference that slows the prep reads on the same
     * SSDs.
     */
    StageTemplate
    ingestWrite(const std::vector<NvmeSsd *> &ssds) const
    {
        const double ssd_share = 1.0 / static_cast<double>(ssds.size());
        const double bytes = d.ssdBytes * ssd_share; // per SSD
        StageTemplate st;
        st.name = "ingest_write";
        st.category = "ingest";
        DemandSet ds;
        ds.add(s.hostMem->resource(), d.ssdBytes);
        ds.add(s.cpu->resource(),
               kDmaSetupCpu + d.ssdBytes * kCrcCpuPerByte);
        for (auto *ssd : ssds) {
            const FlowDemand wr = ssd->shardWriteDemand(bytes);
            const FlowDemand rd = ssd->shardWriteReadInterference(bytes);
            ds.add(wr.resource, wr.weight);
            ds.add(rd.resource, rd.weight);
            ds.add(s.topo->hostRouteDemands(ssd->node(), true, bytes));
        }
        st.demandsPerSample = ds.build();
        return st;
    }

    // --- Chains ---------------------------------------------------------

    /**
     * Read, prepare and load over @p c: on the host CPU, on prep
     * engines fed and drained through host DRAM (Step 1), or on engines
     * in the P2P datapath (Step 2). @p readCpu and @p loadCpu are the
     * host cores the read and the load charge per sample.
     */
    std::vector<StageTemplate>
    localChain(const Chain &c, double readCpu, double loadCpu,
               bool withOthers) const
    {
        std::vector<StageTemplate> chain;
        chain.push_back(ssdRead(c, readCpu));
        if (integrityOn())
            chain.push_back(integrity(c, true));
        if (c.cpuPrepared()) {
            chain.push_back(cpuPrep(PrepStage::Formatting));
            chain.push_back(cpuPrep(PrepStage::Augmentation));
        } else {
            if (!c.p2p)
                chain.push_back(stagedCopy(c.preps, true));
            std::vector<FluidResource *> engines;
            for (auto *prep : c.preps)
                engines.push_back(prep->engine());
            chain.push_back(engineFormatting(engines));
            if (!c.p2p)
                chain.push_back(stagedCopy(c.preps, false));
        }
        chain.push_back(dataLoad(c, loadCpu));
        if (integrityOn())
            chain.push_back(integrity(c, false));
        if (withOthers)
            chain.push_back(others(c));
        return chain;
    }

    /** The prep-pool chain entering and leaving through @p c's ports. */
    std::vector<StageTemplate>
    offloadChain(const Chain &c) const
    {
        std::vector<FluidResource *> engines;
        for (const auto &f : s.pool->fpgas())
            engines.push_back(f.engine);
        std::vector<StageTemplate> chain;
        chain.push_back(ssdRead(c, kP2pControlCpu));
        if (integrityOn())
            chain.push_back(integrity(c, true));
        chain.push_back(poolHop(c.preps, true));
        chain.push_back(engineFormatting(engines));
        chain.push_back(poolHop(c.preps, false));
        chain.push_back(dataLoad(c, 0.0));
        if (integrityOn())
            chain.push_back(integrity(c, false));
        return chain;
    }

    /** Build the non-clustered presets (Figs 12-14 + Gen4 + GPU). */
    void buildCentral();

    /** Build the clustered presets (Fig 15). */
    void buildClustered();

    void makeCentralStages(std::size_t g);
    void makeClusteredStages(std::size_t g);
};

void
Builder::buildCentral()
{
    auto &topo = *s.topo;

    // Accelerator boxes: one 8-accelerator box per group.
    for (std::size_t g = 0; g < nGroups; ++g) {
        const std::string box = "accbox" + std::to_string(g);
        const pcie::NodeId sw =
            topo.addSwitch(box, topo.root(), pcie::gen::gen3x16);
        const std::size_t count =
            std::min(accPerGroup, nAcc - g * accPerGroup);
        for (std::size_t i = 0; i < count; ++i) {
            s.accs.push_back(std::make_unique<NnAccelerator>(
                topo, box + ".acc" + std::to_string(i), sw));
            groupAccs[g].push_back(s.accs.back().get());
        }
    }

    // SSD boxes: same aggregate SSD count as the clustered design.
    const std::size_t n_ssd =
        std::max<std::size_t>(cfg.box.ssdsPerBox,
                              nGroups * cfg.box.ssdsPerBox);
    const std::size_t per_box = cfg.box.ssdsPerSsdBox;
    const std::size_t n_ssd_boxes = divCeil(n_ssd, per_box);
    for (std::size_t b = 0; b < n_ssd_boxes; ++b) {
        const std::string box = "ssdbox" + std::to_string(b);
        const pcie::NodeId sw =
            topo.addSwitch(box, topo.root(), pcie::gen::gen3x16);
        for (std::size_t i = 0;
             i < per_box && s.ssds.size() < n_ssd; ++i) {
            s.ssds.push_back(std::make_unique<NvmeSsd>(
                s.core().fluid(), topo, box + ".ssd" + std::to_string(i), sw));
        }
    }
    // Reads are striped across the whole SSD array for every group.
    for (std::size_t g = 0; g < nGroups; ++g)
        for (auto &ssd : s.ssds)
            groupSsds[g].push_back(ssd.get());

    // Prep boxes (all presets but Baseline): 1 engine per 4 accelerators,
    // eight engines per box (§III-A box structure).
    if (presetUsesPrepAccelerators(cfg.preset)) {
        const std::size_t n_prep = std::max<std::size_t>(1, nAcc / 4);
        const PrepEngineKind kind =
            cfg.preset == ArchPreset::BaselineAccGpu
                ? PrepEngineKind::Gpu : PrepEngineKind::Fpga;
        pcie::NodeId sw = pcie::kInvalidNode;
        for (std::size_t i = 0; i < n_prep; ++i) {
            if (i % 8 == 0) {
                const std::string box =
                    "prepbox" + std::to_string(i / 8);
                sw = topo.addSwitch(box, topo.root(),
                                    pcie::gen::gen3x16);
            }
            s.preps.push_back(std::make_unique<PrepAccelerator>(
                s.core().fluid(), topo, "prep" + std::to_string(i), sw, kind,
                engineRate, /*withEthernet=*/false));
        }
        // Assign engines to groups round-robin so every group has at
        // least one.
        for (std::size_t i = 0; i < std::max(n_prep, nGroups); ++i)
            groupPreps[i % nGroups].push_back(
                s.preps[i % n_prep].get());
    }

    for (std::size_t g = 0; g < nGroups; ++g)
        makeCentralStages(g);
}

void
Builder::makeCentralStages(std::size_t g)
{
    PrepGroup group;
    group.name = "group" + std::to_string(g);
    group.numAccelerators = groupAccs[g].size();
    group.preps = groupPreps[g];

    const Chain c{presetUsesP2p(cfg.preset), groupSsds[g], groupPreps[g],
                  groupAccs[g]};
    const double load_cpu = c.p2p ? kP2pControlCpu
        : c.cpuPrepared()         ? stageCpu(PrepStage::DataLoad)
                                  : kDmaSetupCpu;
    group.stages = localChain(
        c, c.p2p ? kP2pControlCpu : stageCpu(PrepStage::SsdRead), load_cpu,
        /*withOthers=*/true);

    // Central presets stage the snapshot through host DRAM and funnel it
    // through the RC to the shared SSD boxes — the same RC the prep
    // reads cross, so a drain directly steals prep bandwidth.
    group.checkpointWrite =
        checkpointWrite({false, c.ssds, c.preps, c.accs});
    if (cfg.ingest.enabled)
        group.ingestWrite = ingestWrite(c.ssds);

    s.groups.push_back(std::move(group));
}

void
Builder::buildClustered()
{
    auto &topo = *s.topo;

    // Train boxes: top switch with two sub-switches (4 accs + 1 FPGA
    // each) and the box's SSDs (§V-D / Fig 18).
    for (std::size_t g = 0; g < nGroups; ++g) {
        const std::string box = "tbox" + std::to_string(g);
        const pcie::NodeId top =
            topo.addSwitch(box, topo.root(), pcie::gen::gen3x16);

        const std::size_t count =
            std::min(accPerGroup, nAcc - g * accPerGroup);
        const std::size_t n_sub = count > 4 ? 2 : 1;
        std::vector<pcie::NodeId> subs;
        for (std::size_t i = 0; i < n_sub; ++i)
            subs.push_back(topo.addSwitch(
                box + ".sw" + std::to_string(i), top,
                pcie::gen::gen3x16));

        for (std::size_t i = 0; i < count; ++i) {
            s.accs.push_back(std::make_unique<NnAccelerator>(
                topo, box + ".acc" + std::to_string(i),
                subs[i % n_sub]));
            groupAccs[g].push_back(s.accs.back().get());
        }
        for (std::size_t i = 0;
             i < std::max<std::size_t>(1, cfg.box.prepPerBox * n_sub / 2);
             ++i) {
            s.preps.push_back(std::make_unique<PrepAccelerator>(
                s.core().fluid(), topo, box + ".fpga" + std::to_string(i),
                subs[i % n_sub], PrepEngineKind::Fpga, engineRate,
                /*withEthernet=*/true));
            groupPreps[g].push_back(s.preps.back().get());
        }
        for (std::size_t i = 0; i < cfg.box.ssdsPerBox; ++i) {
            s.ssds.push_back(std::make_unique<NvmeSsd>(
                s.core().fluid(), topo, box + ".ssd" + std::to_string(i), top));
            groupSsds[g].push_back(s.ssds.back().get());
        }
    }

    // Prep-pool over Ethernet.
    std::size_t pool_size = 0;
    if (cfg.preset == ArchPreset::TrainBox) {
        pool_size = cfg.prepPoolFpgas >= 0
            ? static_cast<std::size_t>(cfg.prepPoolFpgas)
            : s.plan.poolFpgas;
    }
    if (pool_size > 0) {
        s.pool = std::make_unique<PrepPool>(s.core().fluid(), "pool");
        for (std::size_t i = 0; i < pool_size; ++i)
            s.pool->addFpga(engineRate);
    }

    for (std::size_t g = 0; g < nGroups; ++g)
        makeClusteredStages(g);
}

void
Builder::makeClusteredStages(std::size_t g)
{
    PrepGroup group;
    group.name = "tbox" + std::to_string(g);
    group.numAccelerators = groupAccs[g].size();
    group.preps = groupPreps[g];

    const auto &ssds = groupSsds[g];
    const auto &accs = groupAccs[g];
    const Chain local{true, ssds, groupPreps[g], accs};
    // A prep-FPGA crash kills preps.back(); the survivors stripe the
    // degraded chains (none when the box has a single FPGA).
    const std::vector<PrepAccelerator *> survivors(
        local.preps.begin(), local.preps.end() - 1);
    const Chain degraded{true, ssds, survivors, accs};

    group.stages =
        localChain(local, kP2pControlCpu, 0.0, /*withOthers=*/true);

    // --- Recovery templates (exercised only under fault injection) ----
    // Route loss: the box's data takes the central presets' Step-1
    // staging path through host DRAM.
    group.hostPathStages = localChain({false, ssds, local.preps, accs},
                                      kDmaSetupCpu, kDmaSetupCpu,
                                      /*withOthers=*/false);
    if (!survivors.empty())
        group.degradedStages =
            localChain(degraded, kP2pControlCpu, 0.0, /*withOthers=*/true);

    // --- Offload chain (prep-pool) -------------------------------------
    // Built whenever the pool exists — even at offloadFraction 0 — so
    // crash failover can lend pool capacity to a degraded box.
    if (s.pool) {
        group.offloadFraction = s.plan.offloadFraction;
        group.offloadStages = offloadChain(local);
        if (!survivors.empty())
            group.degradedOffloadStages = offloadChain(degraded);
    }

    group.checkpointWrite = checkpointWrite(local);
    // Arrivals land in host DRAM (the ingest buffer fills from the host
    // NIC), so unlike checkpoint drains the shard appends *do* cross the
    // RC — but they target the box's own SSDs.
    if (cfg.ingest.enabled)
        group.ingestWrite = ingestWrite(ssds);

    s.groups.push_back(std::move(group));
}

} // namespace

Server::Server(const ServerConfig &config, SimulationCore *core,
               std::string resourcePrefix)
    : ownedCore_(core ? nullptr : std::make_unique<SimulationCore>()),
      core_(core ? *core : *ownedCore_),
      prefix_(std::move(resourcePrefix)),
      cfg(config),
      model(workload::model(config.model)),
      demand(workload::prepDemand(model.input)),
      plan(planPreparation(config)),
      metrics(core_.metrics())
{
    // Attach before any resource exists so every device the builder
    // creates gets a utilization history. A disabled registry leaves
    // the network on the exact uninstrumented path. On a shared core
    // the registry stays enabled once any attached server asks for it.
    if (cfg.metricsEnabled)
        metrics.enable(true);
    core_.fluid().attachMetrics(&metrics);
}

void
Server::resetAccounting()
{
    core_.fluid().resetAccounting(resBegin_, resEnd_);
}

Time
Server::computeTime() const
{
    return workload::computeLatency(model, batchSize());
}

Time
Server::syncTime() const
{
    return sync::syncLatency(cfg.sync, cfg.numAccelerators,
                             model.modelBytes);
}

std::unique_ptr<Server>
buildServer(const ServerConfig &cfg)
{
    return buildServer(cfg, nullptr, std::string());
}

std::unique_ptr<Server>
buildServer(const ServerConfig &cfg, SimulationCore *core,
            const std::string &resourcePrefix)
{
    const std::string err = cfg.validate();
    fatal_if(!err.empty(), "invalid server config: %s", err.c_str());

    auto server = std::unique_ptr<Server>(
        new Server(cfg, core, resourcePrefix));
    FluidNetwork &net = server->core().fluid();

    // Namespace every resource this build creates under the server's
    // prefix, and remember the creation-order slice so per-server
    // accounting resets touch only this server's resources.
    net.setNamePrefix(server->resourcePrefix());
    server->resBegin_ = net.resources().size();

    server->topo = std::make_unique<pcie::Topology>(
        net, "pcie.rc", cfg.host.rcBandwidth);
    server->hostMem =
        std::make_unique<HostMemory>(net, cfg.host.memBandwidth);
    server->cpu = std::make_unique<CpuPool>(net, cfg.host.cpuCores);

    Builder builder(*server);
    if (presetUsesClustering(cfg.preset))
        builder.buildClustered();
    else
        builder.buildCentral();

    if (cfg.preset == ArchPreset::BaselineAccP2pGen4)
        server->topo->scaleLinkBandwidth(2.0);

    server->resEnd_ = net.resources().size();
    net.setNamePrefix(std::string());

    return server;
}

} // namespace tb

"""repro — reproduction of "Panning for gold.eth" (IMC 2024).

A full-stack, pure-Python reproduction of Muzammil et al.'s measurement
study of ENS domain dropcatching. The package contains both the paper's
analyses and every substrate they run on:

* :mod:`repro.chain` — an Ethereum-like ledger (incl. real Keccak-256),
* :mod:`repro.ens` — the ENS protocol: registry, registrar with grace
  period and Dutch-auction premium, resolvers, namehash,
* :mod:`repro.indexer` — a The Graph-style subgraph with GraphQL,
* :mod:`repro.explorer` — an Etherscan-style transaction API,
* :mod:`repro.marketplace` — an OpenSea-style NFT market,
* :mod:`repro.oracle` — a synthetic ETH-USD daily close feed,
* :mod:`repro.crawler` — the paper's data-collection pipeline,
* :mod:`repro.datasets` — the crawled dataset model,
* :mod:`repro.core` — the paper's §4 analyses (the contribution),
* :mod:`repro.wallets` — the Appendix-B wallet study + countermeasure,
* :mod:`repro.simulation` — a calibrated ecosystem generator,
* :mod:`repro.lint` — static analysis guarding determinism + layering
  (``python -m repro.lint [--flow]``).

Quick start::

    from repro.simulation import ScenarioConfig, run_scenario
    from repro.core import build_report

    world = run_scenario(ScenarioConfig(n_domains=1000))
    dataset, crawl = world.run_crawl()
    report = build_report(dataset, world.oracle)
    print(*report.lines(), sep="\\n")
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

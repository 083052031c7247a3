"""Golden stdout bytes of every subcommand.

Each ``risk`` and ``scan`` case is a CLI call whose mixture arm runs a
different family sampler (``disjoint``, ``stars``, ``trees``, ``matchings``).  The expected bytes were
recorded from the per-trial ``SeededRng.child(arm, t).generator()`` draw path,
so any faster draw path must reproduce them exactly.  One case spans several
trial chunks and is replayed with ``--workers 2``; one scan uses a master seed
of 2**32 or more, which numpy's SeedSequence splits into two uint32 words.

The ``risk`` maximum test on matchings and ``emax`` on matchings were
recorded from the enumeration and Hungarian-solver kernels, so the subset-DP
kernels that replace them must reproduce those bytes too.  The clique ``risk`` cases (the
likelihood ratio over three trial chunks, also replayed with ``--workers 2``,
and the maximum) and ``emax`` on cliques were recorded from full enumeration,
before the dense-contraction likelihood ratio and the member-major gather.
``emax`` on trees and the trees ``cover`` were recorded from Kruskal's
algorithm and the member matrix filtered from all edge combinations, before
Prim's algorithm and the Prüfer-built member matrix.  The trees ``risk``, both
trees ``scan`` cases (the two-chunk maximum is also replayed with
``--workers 2``) and ``overlap`` on trees were re-recorded when the tree
sampler changed from a random walk to a uniform Prüfer code: their mixture-arm
columns moved and their null-arm columns kept their bytes.

Every ``bounds`` proposition, ``overlap`` on an exact and on a Monte Carlo
family, ``emax`` in JSON, ``cover`` and ``nonmono`` were recorded in both
formats from per-command envelopes, before one writer replaced them.  They
include the degenerate ``random-subclass`` document whose second term is
``None``.  A ``random-subclass`` call with M <= 16 has no value and exits with
a typed error instead (see ``test_cli.py``).
"""

import pytest

from combidetect.cli import main

GOLDEN = {
    'risk-disjoint-optimal': (
        'risk --class disjoint --N 3 --K 2 --test optimal --mu 0.5 --mu 1.5 --trials 300 --seed 7',
        '#schema=combidetect.risk.v1\n'
        '#version=0.1.0\n'
        '#config={"K":2,"N":3,"class":"disjoint","command":"risk","mu":[0.5,1.5],"seed":7,"test":"optimal","trials":300}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.5,0.46666666666666667,0.028803291992923821,0.39666666666666667,0.028244304571731639,0.86333333333333329,0.040340678853613386,300\n'
        '1.5,0.19,0.022649503305812248,0.19,0.022649503305812248,0.38,0.032031234756093936,300\n',
    ),
    'risk-disjoint-chunks': (
        'risk --class disjoint --N 2 --K 1 --test optimal --mu 1.0 --trials 2500 --seed 4',
        '#schema=combidetect.risk.v1\n'
        '#version=0.1.0\n'
        '#config={"K":1,"N":2,"class":"disjoint","command":"risk","mu":[1.0],"seed":4,"test":"optimal","trials":2500}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.3604,0.0096023297173133976,0.34520000000000001,0.0095086688868631867,0.7056,0.013513678995743536,2500\n',
    ),
    'risk-stars-maximum': (
        'risk --class stars --m 6 --test maximum --mu 1.0 --mu 2.0 --trials 300 --seed 3',
        '#schema=combidetect.risk.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"stars","command":"risk","emax0":4.232917987899192,"m":6,"mu":[1.0,2.0],"seed":3,"test":"maximum","trials":300}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.12,0.018761663039293719,0.39333333333333331,0.028202968060248683,0.51333333333333331,0.033873402654699562,300\n'
        '2,0.0033333333333333335,0.0033277731404159861,0.10333333333333333,0.01757418139919615,0.10666666666666666,0.017886473266855208,300\n',
    ),
    'risk-trees-optimal': (
        'risk --class trees --m 5 --test optimal --mu 1.0 --trials 200 --seed 12',
        '#schema=combidetect.risk.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"trees","command":"risk","m":5,"mu":[1.0],"seed":12,"test":"optimal","trials":200}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.20499999999999999,0.028546015483776367,0.23499999999999999,0.029981244136960027,0.43999999999999995,0.041397463690424317,200\n',
    ),
    'risk-matchings-averaging-json': (
        'risk --class matchings --m 4 --test averaging --mu 0.8 --trials 300 --seed 5 --format json',
        '{\n'
        '  "config": {\n'
        '    "class": "matchings",\n'
        '    "command": "risk",\n'
        '    "m": 4,\n'
        '    "mu": [\n'
        '      0.8\n'
        '    ],\n'
        '    "seed": 5,\n'
        '    "test": "averaging",\n'
        '    "trials": 300\n'
        '  },\n'
        '  "results": [\n'
        '    {\n'
        '      "mu": 0.8,\n'
        '      "se1": 0.02721655269759087,\n'
        '      "se2": 0.02753785273643051,\n'
        '      "se_total": 0.03871787796450206,\n'
        '      "total": 0.6833333333333333,\n'
        '      "trials": 300,\n'
        '      "type1": 0.3333333333333333,\n'
        '      "type2": 0.35\n'
        '    }\n'
        '  ],\n'
        '  "schema": "combidetect.risk.v1",\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'scan-disjoint-wide-seed': (
        'scan --class disjoint --N 4 --K 3 --test averaging --mu-grid 0.2:2.0:4 --trials 200 --seed 4294967301',
        '#schema=combidetect.scan.v1\n'
        '#version=0.1.0\n'
        '#config={"K":3,"N":4,"class":"disjoint","command":"scan","mu_grid":"0.2:2.0:4","seed":4294967301,"test":"averaging","trials":200}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.20000000000000001,0.46999999999999997,0.035291642070042588,0.5,0.035355339059327376,0.96999999999999997,0.049954979731754473,200\n'
        '0.80000000000000004,0.36499999999999999,0.034042253156922497,0.375,0.03423265984407288,0.73999999999999999,0.048277841708179121,200\n'
        '1.3999999999999999,0.215,0.029049526674285075,0.23999999999999999,0.030199337741083,0.45499999999999996,0.041903162171845698,200\n'
        '2,0.245,0.030411757594719844,0.17499999999999999,0.026867731575255845,0.41999999999999998,0.040580167569885667,200\n'
        '#critical_mu=1.3052631578947367\n',
    ),
    'scan-stars-optimal': (
        'scan --class stars --m 5 --test optimal --mu-grid 0.5:2.5:3 --trials 200 --seed 11',
        '#schema=combidetect.scan.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"stars","command":"scan","m":5,"mu_grid":"0.5:2.5:3","seed":11,"test":"optimal","trials":200}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.5,0.39500000000000002,0.034566963997435467,0.41499999999999998,0.0348407089480108,0.81000000000000005,0.049079017920084747,200\n'
        '1.5,0.115,0.022558257911461158,0.13500000000000001,0.024163505540380516,0.25,0.033056769352131185,200\n'
        '2.5,0.01,0.0070356236397351446,0.014999999999999999,0.0085950567188355417,0.025000000000000001,0.01110742994576153,200\n'
        '#critical_mu=1.0535714285714286\n',
    ),
    'scan-trees-maximum': (
        'scan --class trees --m 4 --test maximum --mu-grid 0.5:3.0:3 --trials 150 --seed 19',
        '#schema=combidetect.scan.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"trees","command":"scan","emax0":4.078667960675236,"m":4,"mu_grid":"0.5:3.0:3","seed":19,"test":"maximum","trials":150}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.5,0.27333333333333332,0.03638884648004314,0.53333333333333333,0.040734006177385242,0.80666666666666664,0.0546205767765904,150\n'
        '1.75,0.026666666666666668,0.013154354299509993,0.28666666666666668,0.036922340923338806,0.31333333333333335,0.039195615779016618,150\n'
        '3,0,0,0.080000000000000002,0.022150996967781535,0.080000000000000002,0.022150996967781535,150\n'
        '#critical_mu=1.277027027027027\n',
    ),
    'scan-matchings-optimal-json': (
        'scan --class matchings --m 4 --test optimal --mu-grid 0.5:2.0:3 --trials 200 --seed 23 --format json',
        '{\n'
        '  "config": {\n'
        '    "class": "matchings",\n'
        '    "command": "scan",\n'
        '    "m": 4,\n'
        '    "mu_grid": "0.5:2.0:3",\n'
        '    "seed": 23,\n'
        '    "test": "optimal",\n'
        '    "trials": 200\n'
        '  },\n'
        '  "critical_mu": 0.93,\n'
        '  "results": [\n'
        '    {\n'
        '      "mu": 0.5,\n'
        '      "se1": 0.033613613313656115,\n'
        '      "se2": 0.034139420030223126,\n'
        '      "se_total": 0.047910072009964666,\n'
        '      "total": 0.715,\n'
        '      "trials": 200,\n'
        '      "type1": 0.345,\n'
        '      "type2": 0.37\n'
        '    },\n'
        '    {\n'
        '      "mu": 1.25,\n'
        '      "se1": 0.02656124997058685,\n'
        '      "se2": 0.02656124997058685,\n'
        '      "se_total": 0.03756327994198589,\n'
        '      "total": 0.34,\n'
        '      "trials": 200,\n'
        '      "type1": 0.17,\n'
        '      "type2": 0.17\n'
        '    },\n'
        '    {\n'
        '      "mu": 2.0,\n'
        '      "se1": 0.013856406460551017,\n'
        '      "se2": 0.017432010784760317,\n'
        '      "se_total": 0.02226825094164335,\n'
        '      "total": 0.10500000000000001,\n'
        '      "trials": 200,\n'
        '      "type1": 0.04,\n'
        '      "type2": 0.065\n'
        '    }\n'
        '  ],\n'
        '  "schema": "combidetect.scan.v1",\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'risk-matchings-maximum': (
        'risk --class matchings --m 6 --test maximum --mu 1.0 --mu 2.0 --trials 400 --seed 31',
        '#schema=combidetect.risk.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"matchings","command":"risk","emax0":8.88543834282368,"m":6,"mu":[1.0,2.0],"seed":31,"test":"maximum","trials":400}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.20000000000000001,0.02,0.32750000000000001,0.023465067121148406,0.52750000000000008,0.030831953797967458,400\n'
        '2,0.0025000000000000001,0.0024968730444297725,0.19500000000000001,0.01981003533565753,0.19750000000000001,0.019966769267961204,400\n',
    ),
    'scan-trees-optimal': (
        'scan --class trees --m 6 --test optimal --mu-grid 0.4:2.0:3 --trials 200 --seed 37',
        '#schema=combidetect.scan.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"trees","command":"scan","m":6,"mu_grid":"0.4:2.0:3","seed":37,"test":"optimal","trials":200}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.40000000000000002,0.38500000000000001,0.034407484650872115,0.34499999999999997,0.033613613313656115,0.72999999999999998,0.048101455279440347,200\n'
        '1.2000000000000002,0.16,0.025922962793631439,0.19,0.027739863013360393,0.34999999999999998,0.037967091013139255,200\n'
        '2,0.059999999999999998,0.016792855623746664,0.040000000000000001,0.013856406460551017,0.10000000000000001,0.021771541057077241,200\n'
        '#critical_mu=0.88421052631578956\n',
    ),
    'emax-matchings': (
        'emax --class matchings --m 5 --trials 500 --seed 41',
        '#schema=combidetect.emax.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"matchings","command":"emax","m":5,"seed":41,"trials":500}\n'
        'key,value\n'
        'emax0,4.7174239827088691\n'
        'se,0.065906730166940639\n'
        'gaussian_cap,6.9191702846382137\n',
    ),
    'bounds-averaging': (
        'bounds --prop averaging --n 100 --K 10 --delta 0.2 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.1.0\n'
        '#config={"K":10,"delta":0.2,"n":100}\n'
        'key,value\n'
        'name,averaging\n'
        'direction,mu_threshold_for_risk_le_delta\n'
        'value,4.2919320525786944\n'
        'degenerate,False\n',
    ),
    'bounds-averaging-json': (
        'bounds --prop averaging --n 100 --K 10 --delta 0.2 --seed 1 --format json',
        '{\n'
        '  "degenerate": false,\n'
        '  "direction": "mu_threshold_for_risk_le_delta",\n'
        '  "extras": {},\n'
        '  "inputs": {\n'
        '    "K": 10,\n'
        '    "delta": 0.2,\n'
        '    "n": 100\n'
        '  },\n'
        '  "name": "averaging",\n'
        '  "schema": "combidetect.bound.v1",\n'
        '  "value": 4.291932052578694,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'bounds-maxtest': (
        'bounds --prop maxtest --emax0 2.0 --K 49 --delta 0.2 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.1.0\n'
        '#config={"K":49,"delta":0.2,"emax0":2.0}\n'
        'key,value\n'
        'name,maxtest\n'
        'direction,mu_threshold_for_risk_le_delta\n'
        'value,0.6539494768989973\n'
        'degenerate,False\n',
    ),
    'bounds-maxtest-json': (
        'bounds --prop maxtest --emax0 2.0 --K 49 --delta 0.2 --seed 1 --format json',
        '{\n'
        '  "degenerate": false,\n'
        '  "direction": "mu_threshold_for_risk_le_delta",\n'
        '  "extras": {},\n'
        '  "inputs": {\n'
        '    "K": 49,\n'
        '    "delta": 0.2,\n'
        '    "emax0": 2.0\n'
        '  },\n'
        '  "name": "maxtest",\n'
        '  "schema": "combidetect.bound.v1",\n'
        '  "value": 0.6539494768989973,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'bounds-universal': (
        'bounds --prop universal --K 8 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.1.0\n'
        '#config={"K":8}\n'
        'key,value\n'
        'name,universal\n'
        'direction,mu_threshold_for_risk_ge_delta\n'
        'value,0.37926380822046601\n'
        'degenerate,False\n'
        'extras.delta,0.5\n',
    ),
    'bounds-universal-json': (
        'bounds --prop universal --K 8 --seed 1 --format json',
        '{\n'
        '  "degenerate": false,\n'
        '  "direction": "mu_threshold_for_risk_ge_delta",\n'
        '  "extras": {\n'
        '    "delta": 0.5\n'
        '  },\n'
        '  "inputs": {\n'
        '    "K": 8\n'
        '  },\n'
        '  "name": "universal",\n'
        '  "schema": "combidetect.bound.v1",\n'
        '  "value": 0.379263808220466,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'bounds-pairs': (
        'bounds --prop pairs --mgf 1.2 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.1.0\n'
        '#config={"mgf":1.2}\n'
        'key,value\n'
        'name,pairs\n'
        'direction,lower_bound_on_risk\n'
        'value,0.77639320225002106\n'
        'degenerate,False\n',
    ),
    'bounds-pairs-json': (
        'bounds --prop pairs --mgf 1.2 --seed 1 --format json',
        '{\n'
        '  "degenerate": false,\n'
        '  "direction": "lower_bound_on_risk",\n'
        '  "extras": {},\n'
        '  "inputs": {\n'
        '    "mgf": 1.2\n'
        '  },\n'
        '  "name": "pairs",\n'
        '  "schema": "combidetect.bound.v1",\n'
        '  "value": 0.7763932022500211,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'bounds-symmetric': (
        'bounds --prop symmetric --n 45 --K 5 --delta 0.3 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.1.0\n'
        '#config={"K":5,"delta":0.3,"n":45}\n'
        'key,value\n'
        'name,symmetric\n'
        'direction,mu_threshold_for_risk_ge_delta\n'
        'value,0.76489343169587287\n'
        'degenerate,False\n',
    ),
    'bounds-symmetric-json': (
        'bounds --prop symmetric --n 45 --K 5 --delta 0.3 --seed 1 --format json',
        '{\n'
        '  "degenerate": false,\n'
        '  "direction": "mu_threshold_for_risk_ge_delta",\n'
        '  "extras": {},\n'
        '  "inputs": {\n'
        '    "K": 5,\n'
        '    "delta": 0.3,\n'
        '    "n": 45\n'
        '  },\n'
        '  "name": "symmetric",\n'
        '  "schema": "combidetect.bound.v1",\n'
        '  "value": 0.7648934316958729,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'bounds-negass': (
        'bounds --prop negass --n 25 --K 5 --delta 0.5 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.1.0\n'
        '#config={"K":5,"delta":0.5,"n":25}\n'
        'key,value\n'
        'name,negass\n'
        'direction,mu_threshold_for_risk_ge_delta\n'
        'value,0.72566454656338597\n'
        'degenerate,False\n',
    ),
    'bounds-negass-json': (
        'bounds --prop negass --n 25 --K 5 --delta 0.5 --seed 1 --format json',
        '{\n'
        '  "degenerate": false,\n'
        '  "direction": "mu_threshold_for_risk_ge_delta",\n'
        '  "extras": {},\n'
        '  "inputs": {\n'
        '    "K": 5,\n'
        '    "delta": 0.5,\n'
        '    "n": 25\n'
        '  },\n'
        '  "name": "negass",\n'
        '  "schema": "combidetect.bound.v1",\n'
        '  "value": 0.725664546563386,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'bounds-cliques': (
        'bounds --prop cliques --m 63 --k 4 --delta 0.2 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.1.0\n'
        '#config={"delta":0.2,"k":4,"m":63}\n'
        'key,value\n'
        'name,cliques\n'
        'direction,mu_threshold_for_risk_le_delta\n'
        'value,3.9902803744804141\n'
        'degenerate,False\n'
        'extras.lower_delta,0.5\n'
        'extras.lower_mu,0.71827800758336202\n',
    ),
    'bounds-cliques-json': (
        'bounds --prop cliques --m 63 --k 4 --delta 0.2 --seed 1 --format json',
        '{\n'
        '  "degenerate": false,\n'
        '  "direction": "mu_threshold_for_risk_le_delta",\n'
        '  "extras": {\n'
        '    "lower_delta": 0.5,\n'
        '    "lower_mu": 0.718278007583362\n'
        '  },\n'
        '  "inputs": {\n'
        '    "delta": 0.2,\n'
        '    "k": 4,\n'
        '    "m": 63\n'
        '  },\n'
        '  "name": "cliques",\n'
        '  "schema": "combidetect.bound.v1",\n'
        '  "value": 3.990280374480414,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'bounds-random-subclass-none': (
        'bounds --prop random-subclass --K 8 --M 20 --t 4.0 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.1.0\n'
        '#config={"K":8,"M":20,"t":4.0}\n'
        'key,value\n'
        'name,random-subclass\n'
        'direction,mu_threshold_for_risk_ge_delta\n'
        'value,0.16701180770914439\n'
        'degenerate,False\n'
        'extras.first_term,0.16701180770914439\n'
        'extras.second_term,None\n',
    ),
    'bounds-random-subclass-none-json': (
        'bounds --prop random-subclass --K 8 --M 20 --t 4.0 --seed 1 --format json',
        '{\n'
        '  "degenerate": false,\n'
        '  "direction": "mu_threshold_for_risk_ge_delta",\n'
        '  "extras": {\n'
        '    "first_term": 0.1670118077091444,\n'
        '    "second_term": null\n'
        '  },\n'
        '  "inputs": {\n'
        '    "K": 8,\n'
        '    "M": 20,\n'
        '    "t": 4.0\n'
        '  },\n'
        '  "name": "random-subclass",\n'
        '  "schema": "combidetect.bound.v1",\n'
        '  "value": 0.1670118077091444,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'bounds-random-subclass': (
        'bounds --prop random-subclass --K 10 --M 160 --t 2.0 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.1.0\n'
        '#config={"K":10,"M":160,"t":2.0}\n'
        'key,value\n'
        'name,random-subclass\n'
        'direction,mu_threshold_for_risk_ge_delta\n'
        'value,0.47985259121880813\n'
        'degenerate,True\n'
        'extras.first_term,0.47985259121880813\n'
        'extras.second_term,-4.3278764623870964\n'
        'extras.verbatim_min,-4.3278764623870964\n',
    ),
    'bounds-random-subclass-json': (
        'bounds --prop random-subclass --K 10 --M 160 --t 2.0 --seed 1 --format json',
        '{\n'
        '  "degenerate": true,\n'
        '  "direction": "mu_threshold_for_risk_ge_delta",\n'
        '  "extras": {\n'
        '    "first_term": 0.47985259121880813,\n'
        '    "second_term": -4.3278764623870964,\n'
        '    "verbatim_min": -4.3278764623870964\n'
        '  },\n'
        '  "inputs": {\n'
        '    "K": 10,\n'
        '    "M": 160,\n'
        '    "t": 2.0\n'
        '  },\n'
        '  "name": "random-subclass",\n'
        '  "schema": "combidetect.bound.v1",\n'
        '  "value": 0.47985259121880813,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'bounds-vc-cover': (
        'bounds --prop vc-cover --n 100 --V 2 --t 1.5 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.1.0\n'
        '#config={"V":2,"n":100,"t":1.5}\n'
        'key,value\n'
        'name,vc-cover\n'
        'direction,upper_bound_on_covering_number\n'
        'value,476101.61595704098\n'
        'degenerate,False\n',
    ),
    'bounds-vc-cover-json': (
        'bounds --prop vc-cover --n 100 --V 2 --t 1.5 --seed 1 --format json',
        '{\n'
        '  "degenerate": false,\n'
        '  "direction": "upper_bound_on_covering_number",\n'
        '  "extras": {},\n'
        '  "inputs": {\n'
        '    "V": 2,\n'
        '    "n": 100,\n'
        '    "t": 1.5\n'
        '  },\n'
        '  "name": "vc-cover",\n'
        '  "schema": "combidetect.bound.v1",\n'
        '  "value": 476101.615957041,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'bounds-dudley': (
        'bounds --prop dudley --class ksets --n 12 --K 3 --constant 1 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.1.0\n'
        '#config={"class":{"K":3,"family":"ksets","n":12},"constant":1.0}\n'
        'key,value\n'
        'name,dudley\n'
        'direction,upper_bound_on_emax0\n'
        'value,4.795895440198799\n'
        'degenerate,False\n',
    ),
    'bounds-dudley-json': (
        'bounds --prop dudley --class ksets --n 12 --K 3 --constant 1 --seed 1 --format json',
        '{\n'
        '  "degenerate": false,\n'
        '  "direction": "upper_bound_on_emax0",\n'
        '  "extras": {},\n'
        '  "inputs": {\n'
        '    "class": {\n'
        '      "K": 3,\n'
        '      "family": "ksets",\n'
        '      "n": 12\n'
        '    },\n'
        '    "constant": 1.0\n'
        '  },\n'
        '  "name": "dudley",\n'
        '  "schema": "combidetect.bound.v1",\n'
        '  "value": 4.795895440198799,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'bounds-type1-cover': (
        'bounds --prop type1-cover --class stars --m 6 --delta 0.1 --trials 300 --seed 43',
        '#schema=combidetect.bound.v1\n'
        '#version=0.1.0\n'
        '#config={"class":{"family":"stars","m":6},"delta":0.1,"seed":43,"trials":300}\n'
        'key,value\n'
        'name,type1-cover\n'
        'direction,mu_threshold_for_risk_le_delta\n'
        'value,5.3901925636452548\n'
        'degenerate,False\n'
        'extras.controls,type1 only\n'
        'extras.cover_size,6\n'
        'extras.emax_cover,2.5288247988891883\n'
        'extras.emax_cover_se,0.090921639949326311\n'
        'extras.sudakov_cap,1.693167195159677\n',
    ),
    'bounds-type1-cover-json': (
        'bounds --prop type1-cover --class stars --m 6 --delta 0.1 --trials 300 --seed 43 --format json',
        '{\n'
        '  "degenerate": false,\n'
        '  "direction": "mu_threshold_for_risk_le_delta",\n'
        '  "extras": {\n'
        '    "controls": "type1 only",\n'
        '    "cover_size": 6,\n'
        '    "emax_cover": 2.5288247988891883,\n'
        '    "emax_cover_se": 0.09092163994932631,\n'
        '    "sudakov_cap": 1.693167195159677\n'
        '  },\n'
        '  "inputs": {\n'
        '    "class": {\n'
        '      "family": "stars",\n'
        '      "m": 6\n'
        '    },\n'
        '    "delta": 0.1,\n'
        '    "seed": 43,\n'
        '    "trials": 300\n'
        '  },\n'
        '  "name": "type1-cover",\n'
        '  "schema": "combidetect.bound.v1",\n'
        '  "value": 5.390192563645255,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'overlap-stars-exact': (
        'overlap --class stars --m 6 --mu 0.8 --seed 47',
        '#schema=combidetect.overlap.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"stars","command":"overlap","m":6,"mu":0.8,"pairs":10000,"seed":47}\n'
        'key,value\n'
        'mgf,5.6691557656056872\n'
        'mgf_se,0\n'
        'exact,True\n'
        'risk_lower_bound,0\n',
    ),
    'overlap-stars-exact-json': (
        'overlap --class stars --m 6 --mu 0.8 --seed 47 --format json',
        '{\n'
        '  "config": {\n'
        '    "class": "stars",\n'
        '    "command": "overlap",\n'
        '    "m": 6,\n'
        '    "mu": 0.8,\n'
        '    "pairs": 10000,\n'
        '    "seed": 47\n'
        '  },\n'
        '  "exact": true,\n'
        '  "mgf": 5.669155765605687,\n'
        '  "mgf_se": 0.0,\n'
        '  "risk_lower_bound": 0.0,\n'
        '  "schema": "combidetect.overlap.v1",\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'overlap-ksets-mc': (
        'overlap --class ksets --n 10 --K 3 --mu 0.7 --pairs 500 --seed 53',
        '#schema=combidetect.overlap.v1\n'
        '#version=0.1.0\n'
        '#config={"K":3,"class":"ksets","command":"overlap","mu":0.7,"n":10,"pairs":500,"seed":53}\n'
        'key,value\n'
        'mgf,1.6420078391887973\n'
        'mgf_se,0.026732069531777761\n'
        'exact,False\n'
        'risk_lower_bound,0.59937304159954574\n',
    ),
    'overlap-ksets-mc-json': (
        'overlap --class ksets --n 10 --K 3 --mu 0.7 --pairs 500 --seed 53 --format json',
        '{\n'
        '  "config": {\n'
        '    "K": 3,\n'
        '    "class": "ksets",\n'
        '    "command": "overlap",\n'
        '    "mu": 0.7,\n'
        '    "n": 10,\n'
        '    "pairs": 500,\n'
        '    "seed": 53\n'
        '  },\n'
        '  "exact": false,\n'
        '  "mgf": 1.6420078391887973,\n'
        '  "mgf_se": 0.02673206953177776,\n'
        '  "risk_lower_bound": 0.5993730415995457,\n'
        '  "schema": "combidetect.overlap.v1",\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'emax-matchings-json': (
        'emax --class matchings --m 5 --trials 500 --seed 41 --format json',
        '{\n'
        '  "config": {\n'
        '    "class": "matchings",\n'
        '    "command": "emax",\n'
        '    "m": 5,\n'
        '    "seed": 41,\n'
        '    "trials": 500\n'
        '  },\n'
        '  "emax0": 4.717423982708869,\n'
        '  "gaussian_cap": 6.919170284638214,\n'
        '  "schema": "combidetect.emax.v1",\n'
        '  "se": 0.06590673016694064,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'cover-ksets': (
        'cover --class ksets --n 6 --K 2 --radius 1.5 --seed 59',
        '#schema=combidetect.cover.v1\n'
        '#version=0.1.0\n'
        '#config={"K":2,"class":"ksets","command":"cover","n":6,"radius":1.5,"seed":59}\n'
        'set_id,indices\n'
        '1,1;2\n'
        '2,3;4\n'
        '3,5;6\n'
        '#cover_size=3\n',
    ),
    'cover-ksets-json': (
        'cover --class ksets --n 6 --K 2 --radius 1.5 --seed 59 --format json',
        '{\n'
        '  "config": {\n'
        '    "K": 2,\n'
        '    "class": "ksets",\n'
        '    "command": "cover",\n'
        '    "n": 6,\n'
        '    "radius": 1.5,\n'
        '    "seed": 59\n'
        '  },\n'
        '  "cover_size": 3,\n'
        '  "members": [\n'
        '    "1,2",\n'
        '    "3,4",\n'
        '    "5,6"\n'
        '  ],\n'
        '  "schema": "combidetect.cover.v1",\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'nonmono': (
        'nonmono --K 3 --epsilon 0.8 --trials 300 --seed 61',
        '#schema=combidetect.nonmono.v1\n'
        '#version=0.1.0\n'
        '#config={"K":3,"command":"nonmono","epsilon":0.8,"seed":61,"trials":300}\n'
        'key,value\n'
        'mu,0.76261091318105356\n'
        'n,16\n'
        'gap,-0.0066666666666665986\n'
        'gap_se,0.052605449654321304\n'
        'side_condition_holds,False\n'
        'side_condition_lhs,0.76261091318105356\n'
        'side_condition_rhs,1.5631512887959418\n'
        'risk_disjoint.type1,0.25333333333333335\n'
        'risk_disjoint.se1,0.025110127807689838\n'
        'risk_disjoint.type2,0.33666666666666667\n'
        'risk_disjoint.se2,0.02728383051199753\n'
        'risk_disjoint.total,0.59000000000000008\n'
        'risk_disjoint.se_total,0.037079993607414846\n'
        'risk_union.type1,0.27666666666666667\n'
        'risk_union.se1,0.025827777180277709\n'
        'risk_union.type2,0.32000000000000001\n'
        'risk_union.se2,0.026932013168965541\n'
        'risk_union.total,0.59666666666666668\n'
        'risk_union.se_total,0.037314975645274209\n'
        'risk_witness_averaging.type1,0.33333333333333331\n'
        'risk_witness_averaging.se1,0.027216552697590869\n'
        'risk_witness_averaging.type2,0.23666666666666666\n'
        'risk_witness_averaging.se2,0.024539461794937253\n'
        'risk_witness_averaging.total,0.56999999999999995\n'
        'risk_witness_averaging.se_total,0.036645953745617341\n',
    ),
    'nonmono-json': (
        'nonmono --K 3 --epsilon 0.8 --trials 300 --seed 61 --format json',
        '{\n'
        '  "config": {\n'
        '    "K": 3,\n'
        '    "command": "nonmono",\n'
        '    "epsilon": 0.8,\n'
        '    "seed": 61,\n'
        '    "trials": 300\n'
        '  },\n'
        '  "gap": -0.006666666666666599,\n'
        '  "gap_se": 0.052605449654321304,\n'
        '  "mu": 0.7626109131810536,\n'
        '  "n": 16,\n'
        '  "risk_disjoint_se1": 0.025110127807689838,\n'
        '  "risk_disjoint_se2": 0.02728383051199753,\n'
        '  "risk_disjoint_se_total": 0.037079993607414846,\n'
        '  "risk_disjoint_total": 0.5900000000000001,\n'
        '  "risk_disjoint_type1": 0.25333333333333335,\n'
        '  "risk_disjoint_type2": 0.33666666666666667,\n'
        '  "risk_union_se1": 0.02582777718027771,\n'
        '  "risk_union_se2": 0.02693201316896554,\n'
        '  "risk_union_se_total": 0.03731497564527421,\n'
        '  "risk_union_total": 0.5966666666666667,\n'
        '  "risk_union_type1": 0.27666666666666667,\n'
        '  "risk_union_type2": 0.32,\n'
        '  "risk_witness_averaging_se1": 0.02721655269759087,\n'
        '  "risk_witness_averaging_se2": 0.024539461794937253,\n'
        '  "risk_witness_averaging_se_total": 0.03664595374561734,\n'
        '  "risk_witness_averaging_total": 0.57,\n'
        '  "risk_witness_averaging_type1": 0.3333333333333333,\n'
        '  "risk_witness_averaging_type2": 0.23666666666666666,\n'
        '  "schema": "combidetect.nonmono.v1",\n'
        '  "side_condition_holds": false,\n'
        '  "side_condition_lhs": 0.7626109131810536,\n'
        '  "side_condition_rhs": 1.5631512887959418,\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'risk-cliques-optimal-chunks': (
        'risk --class cliques --m 12 --k 4 --test optimal --mu 0.6 --mu 1.2 --trials 2100 --seed 53',
        '#schema=combidetect.risk.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"cliques","command":"risk","k":4,"m":12,"mu":[0.6,1.2],"seed":53,"test":"optimal","trials":2100}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.59999999999999998,0.39238095238095239,0.010655160622899819,0.40523809523809523,0.010713146827855409,0.79761904761904767,0.01510973073403306,2100\n'
        '1.2,0.22952380952380952,0.009176642979545499,0.27523809523809523,0.0097463567348889148,0.50476190476190474,0.013386644313559549,2100\n',
    ),
    'risk-cliques-maximum': (
        'risk --class cliques --m 12 --k 4 --test maximum --mu 1.0 --mu 2.0 --trials 400 --seed 59',
        '#schema=combidetect.risk.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"cliques","command":"risk","emax0":8.628713296362575,"k":4,"m":12,"mu":[1.0,2.0],"seed":59,"test":"maximum","trials":400}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.28999999999999998,0.022688102609076853,0.33500000000000002,0.023599523300270285,0.625,0.032736638495728304,400\n'
        '2,0.0074999999999999997,0.0043138584816843498,0.20749999999999999,0.020275832288712589,0.215,0.02072965870437813,400\n',
    ),
    'emax-cliques': (
        'emax --class cliques --m 12 --k 4 --trials 500 --seed 61',
        '#schema=combidetect.emax.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"cliques","command":"emax","k":4,"m":12,"seed":61,"trials":500}\n'
        'key,value\n'
        'emax0,6.5983306430150517\n'
        'se,0.054849097508807537\n'
        'gaussian_cap,8.6287132963625748\n',
    ),
    'scan-trees-maximum-chunks': (
        'scan --class trees --m 12 --test maximum --mu-grid 0.5:2.0:3 --trials 1100 --seed 23',
        '#schema=combidetect.scan.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"trees","command":"scan","emax0":23.381177535645207,"m":12,"mu_grid":"0.5:2.0:3","seed":23,"test":"maximum","trials":1100}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.5,0.71818181818181814,0.013564549190474279,0.13272727272727272,0.010229669140728617,0.85090909090909084,0.016989500447911109,1100\n'
        '1.25,0.082727272727272733,0.008305719336937769,0.26272727272727275,0.01326998160211652,0.34545454545454546,0.015654947634038668,1100\n'
        '2,0,0,0.20545454545454545,0.012182064879702588,0.20545454545454545,0.012182064879702588,1100\n'
        '#critical_mu=1.0206834532374101\n',
    ),
    'overlap-trees': (
        'overlap --class trees --m 7 --mu 0.8 --pairs 2000 --seed 29',
        '#schema=combidetect.overlap.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"trees","command":"overlap","m":7,"mu":0.8,"pairs":2000,"seed":29}\n'
        'key,value\n'
        'mgf,3.5810584189988104\n'
        'mgf_se,0.057219428375043166\n'
        'exact,False\n'
        'risk_lower_bound,0.1967163609597774\n',
    ),
    'emax-trees': (
        'emax --class trees --m 7 --trials 1100 --seed 31',
        '#schema=combidetect.emax.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"trees","command":"emax","m":7,"seed":31,"trials":1100}\n'
        'key,value\n'
        'emax0,6.451600737900395\n'
        'se,0.053229645200538626\n'
        'gaussian_cap,10.805304666843911\n',
    ),
    'cover-trees': (
        'cover --class trees --m 6 --radius 2 --seed 1',
        '#schema=combidetect.cover.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"trees","command":"cover","m":6,"radius":2.0,"seed":1}\n'
        'set_id,indices\n'
        '1,1;2;3;4;5\n'
        '2,1;2;7;8;9\n'
        '3,1;2;10;11;12\n'
        '4,1;3;6;8;12\n'
        '5,1;3;9;10;13\n'
        '6,1;3;11;14;15\n'
        '7,1;4;6;7;14\n'
        '8,1;4;12;13;15\n'
        '9,1;5;6;10;15\n'
        '10,1;5;7;11;13\n'
        '11,2;3;6;9;11\n'
        '12,2;3;7;12;13\n'
        '13,2;4;7;10;15\n'
        '14,2;4;8;12;14\n'
        '15,2;5;6;8;13\n'
        '16,2;5;9;14;15\n'
        '17,3;5;7;8;10\n'
        '18,4;5;7;9;12\n'
        '19,4;6;8;9;10\n'
        '20,4;9;11;13;14\n'
        '21,5;6;11;12;14\n'
        '#cover_size=21\n',
    ),
}


def run(capsys, argv: list[str]) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return captured.out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_bytes_match_golden(capsys, name):
    command, expected = GOLDEN[name]
    assert run(capsys, command.split()) == expected


def test_workers_replay_golden_bytes(capsys):
    command, expected = GOLDEN["risk-disjoint-chunks"]
    assert run(capsys, command.split() + ["--workers", "2"]) == expected


def test_workers_replay_clique_golden_bytes(capsys):
    command, expected = GOLDEN["risk-cliques-optimal-chunks"]
    assert run(capsys, command.split() + ["--workers", "2"]) == expected


def test_workers_replay_trees_golden_bytes(capsys):
    command, expected = GOLDEN["scan-trees-maximum-chunks"]
    assert run(capsys, command.split() + ["--workers", "2"]) == expected

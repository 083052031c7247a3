"""Golden stdout bytes of every subcommand.

Each ``risk`` and ``scan`` case is a CLI call whose mixture arm runs a
different family sampler (``disjoint``, ``stars``, ``trees``, ``matchings``).
Every case was re-recorded at version 0.2.0, when trials began to draw in
groups: trial t of a (point, arm) segment is row t % G of group t // G, with
G = ``_chunk_size(n)`` trials, and the group draws its normals from the
substream ``(seed, *stream, [point,] arm, group, 0)`` and its mixture
members from ``(..., group, 1)``, one numpy call each.  Cases that draw
nothing changed in their ``#version=`` line only.

At version 0.3.0 a group whose test reads member sums of a closed-form law
draws those sums from ``(..., group, 0)`` in place of X: the averaging sum
of every family, the star sums and the disjoint block sums.  Five cases
were re-recorded then: ``risk-disjoint-optimal`` (K = 2),
``risk-stars-maximum``, ``scan-stars-optimal``,
``risk-matchings-averaging-json`` and ``scan-disjoint-wide-seed``
(averaging).  Every other case changed in its ``#version=`` line only,
``risk-disjoint-chunks`` among them, whose K = 1 block sums are X itself.

At version 0.4.0 the maximum test on stars draws the largest star sum from
its order-statistic law, two normals a row from ``(..., group, 0)`` and one
uniform a row from ``(..., group, 1)`` on both arms, and the likelihood
ratio's offset squares mu as ``mu * mu``.  One case was re-recorded: ``risk-stars-maximum``.
Every other case changed in its ``#version=`` line only.

Three cases span several groups and are replayed with ``--workers 2``
(``risk`` on disjoint blocks and on cliques, and the trees maximum scan);
one scan uses a master seed of 2**32 or more, which numpy's SeedSequence
splits into two uint32 words.

The matchings and clique ``risk`` and ``emax`` cases pin the exact kernels
(the subset DP, the clique kernels, Prim's trees), which were each
first checked against bytes recorded from full enumeration.

Every ``bounds`` proposition, ``overlap`` on an exact and on a Monte Carlo
family, ``emax`` in JSON, ``cover`` and ``nonmono`` run through one writer
in both formats.  They include the degenerate ``random-subclass`` document
whose second term is ``None``.  A ``random-subclass`` call with M <= 16 has
no value and exits with a typed error instead (see ``test_cli.py``).
"""

import pytest

from combidetect.cli import main

GOLDEN = {
    'risk-disjoint-optimal': (
        'risk --class disjoint --N 3 --K 2 --test optimal --mu 0.5 --mu 1.5 --trials 300 --seed 7',
        '#schema=combidetect.risk.v1\n'
        '#version=0.4.0\n'
        '#config={"K":2,"N":3,"class":"disjoint","command":"risk","mu":[0.5,1.5],"seed":7,"test":"optimal","trials":300}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.5,0.36666666666666664,0.027822186723442031,0.43333333333333335,0.028609762643519408,0.80000000000000004,0.039907299991262156,300\n'
        '1.5,0.19333333333333333,0.022800259907550437,0.23999999999999999,0.024657656011875907,0.43333333333333335,0.033583505651611952,300\n',
    ),
    'risk-disjoint-chunks': (
        'risk --class disjoint --N 2 --K 1 --test optimal --mu 1.0 --trials 2500 --seed 4',
        '#schema=combidetect.risk.v1\n'
        '#version=0.4.0\n'
        '#config={"K":1,"N":2,"class":"disjoint","command":"risk","mu":[1.0],"seed":4,"test":"optimal","trials":2500}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.33479999999999999,0.0094384100355939179,0.34999999999999998,0.0095393920141694562,0.68479999999999996,0.013419522495230596,2500\n',
    ),
    'risk-stars-maximum': (
        'risk --class stars --m 6 --test maximum --mu 1.0 --mu 2.0 --trials 300 --seed 3',
        '#schema=combidetect.risk.v1\n'
        '#version=0.4.0\n'
        '#config={"class":"stars","command":"risk","emax0":4.232917987899192,"m":6,"mu":[1.0,2.0],"seed":3,"test":"maximum","trials":300}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.10000000000000001,0.017320508075688773,0.38333333333333336,0.02807067799257729,0.48333333333333339,0.032984283575105328,300\n'
        '2,0,0,0.11666666666666667,0.018534252575124751,0.11666666666666667,0.018534252575124751,300\n',
    ),
    'risk-trees-optimal': (
        'risk --class trees --m 5 --test optimal --mu 1.0 --trials 200 --seed 12',
        '#schema=combidetect.risk.v1\n'
        '#version=0.4.0\n'
        '#config={"class":"trees","command":"risk","m":5,"mu":[1.0],"seed":12,"test":"optimal","trials":200}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.22500000000000001,0.029527529527544293,0.215,0.029049526674285075,0.44,0.041421612716068895,200\n',
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
        '      "se1": 0.028202968060248683,\n'
        '      "se2": 0.02776822057810104,\n'
        '      "se_total": 0.03957880091010188,\n'
        '      "total": 0.7566666666666666,\n'
        '      "trials": 300,\n'
        '      "type1": 0.3933333333333333,\n'
        '      "type2": 0.36333333333333334\n'
        '    }\n'
        '  ],\n'
        '  "schema": "combidetect.risk.v1",\n'
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'scan-disjoint-wide-seed': (
        'scan --class disjoint --N 4 --K 3 --test averaging --mu-grid 0.2:2.0:4 --trials 200 --seed 4294967301',
        '#schema=combidetect.scan.v1\n'
        '#version=0.4.0\n'
        '#config={"K":3,"N":4,"class":"disjoint","command":"scan","mu_grid":"0.2:2.0:4","seed":4294967301,"test":"averaging","trials":200}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.20000000000000001,0.495,0.035353571248178027,0.47499999999999998,0.035311117229563836,0.96999999999999997,0.049967489430628793,200\n'
        '0.80000000000000004,0.34999999999999998,0.033726843908080104,0.32500000000000001,0.033119103248729423,0.67500000000000004,0.04726917600297259,200\n'
        '1.3999999999999999,0.25,0.030618621784789725,0.22,0.029291637031753619,0.46999999999999997,0.042373340675476601,200\n'
        '2,0.23499999999999999,0.029981244136960027,0.215,0.029049526674285075,0.44999999999999996,0.041746257317273369,200\n'
        '#critical_mu=1.3121951219512193\n',
    ),
    'scan-stars-optimal': (
        'scan --class stars --m 5 --test optimal --mu-grid 0.5:2.5:3 --trials 200 --seed 11',
        '#schema=combidetect.scan.v1\n'
        '#version=0.4.0\n'
        '#config={"class":"stars","command":"scan","m":5,"mu_grid":"0.5:2.5:3","seed":11,"test":"optimal","trials":200}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.5,0.33000000000000002,0.033249060137092598,0.41499999999999998,0.0348407089480108,0.745,0.048159889950040377,200\n'
        '1.5,0.095000000000000001,0.020733427116615334,0.125,0.023385358667337135,0.22,0.031252999856013826,200\n'
        '2.5,0.014999999999999999,0.0085950567188355417,0.025000000000000001,0.011039701082909808,0.040000000000000001,0.013991068579633222,200\n'
        '#critical_mu=0.96666666666666656\n',
    ),
    'scan-trees-maximum': (
        'scan --class trees --m 4 --test maximum --mu-grid 0.5:3.0:3 --trials 150 --seed 19',
        '#schema=combidetect.scan.v1\n'
        '#version=0.4.0\n'
        '#config={"class":"trees","command":"scan","emax0":4.078667960675236,"m":4,"mu_grid":"0.5:3.0:3","seed":19,"test":"maximum","trials":150}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.5,0.32666666666666666,0.038293215722505866,0.42666666666666669,0.040383348236801946,0.75333333333333341,0.05565236010435843,150\n'
        '1.75,0.033333333333333333,0.014656562175858799,0.19333333333333333,0.032244436786889361,0.22666666666666666,0.035419182917149836,150\n'
        '3,0,0,0.040000000000000001,0.016,0.040000000000000001,0.016,150\n'
        '#critical_mu=1.1012658227848102\n',
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
        '  "critical_mu": 1.0136986301369864,\n'
        '  "results": [\n'
        '    {\n'
        '      "mu": 0.5,\n'
        '      "se1": 0.034641016151377546,\n'
        '      "se2": 0.033726843908080104,\n'
        '      "se_total": 0.04834769901453429,\n'
        '      "total": 0.75,\n'
        '      "trials": 200,\n'
        '      "type1": 0.4,\n'
        '      "type2": 0.35\n'
        '    },\n'
        '    {\n'
        '      "mu": 1.25,\n'
        '      "se1": 0.02592296279363144,\n'
        '      "se2": 0.029527529527544293,\n'
        '      "se_total": 0.03929217479346238,\n'
        '      "total": 0.385,\n'
        '      "trials": 200,\n'
        '      "type1": 0.16,\n'
        '      "type2": 0.225\n'
        '    },\n'
        '    {\n'
        '      "mu": 2.0,\n'
        '      "se1": 0.01971991379291502,\n'
        '      "se2": 0.016120638945153507,\n'
        '      "se_total": 0.025470571253900058,\n'
        '      "total": 0.14,\n'
        '      "trials": 200,\n'
        '      "type1": 0.085,\n'
        '      "type2": 0.055\n'
        '    }\n'
        '  ],\n'
        '  "schema": "combidetect.scan.v1",\n'
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'risk-matchings-maximum': (
        'risk --class matchings --m 6 --test maximum --mu 1.0 --mu 2.0 --trials 400 --seed 31',
        '#schema=combidetect.risk.v1\n'
        '#version=0.4.0\n'
        '#config={"class":"matchings","command":"risk","emax0":8.88543834282368,"m":6,"mu":[1.0,2.0],"seed":31,"test":"maximum","trials":400}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.20749999999999999,0.020275832288712589,0.34499999999999997,0.023768413914268656,0.55249999999999999,0.031241748910712408,400\n'
        '2,0.0074999999999999997,0.0043138584816843498,0.17499999999999999,0.018998355191963329,0.1825,0.019481962811790807,400\n',
    ),
    'scan-trees-optimal': (
        'scan --class trees --m 6 --test optimal --mu-grid 0.4:2.0:3 --trials 200 --seed 37',
        '#schema=combidetect.scan.v1\n'
        '#version=0.4.0\n'
        '#config={"class":"trees","command":"scan","m":6,"mu_grid":"0.4:2.0:3","seed":37,"test":"optimal","trials":200}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.40000000000000002,0.33000000000000002,0.033249060137092598,0.38500000000000001,0.034407484650872115,0.71500000000000008,0.047847413723209747,200\n'
        '1.2000000000000002,0.155,0.025590525590538388,0.20000000000000001,0.028284271247461905,0.35499999999999998,0.038142823702500057,200\n'
        '2,0.059999999999999998,0.016792855623746664,0.035000000000000003,0.012995191418367026,0.095000000000000001,0.021233817367586075,200\n'
        '#critical_mu=0.87777777777777799\n',
    ),
    'emax-matchings': (
        'emax --class matchings --m 5 --trials 500 --seed 41',
        '#schema=combidetect.emax.v1\n'
        '#version=0.4.0\n'
        '#config={"class":"matchings","command":"emax","m":5,"seed":41,"trials":500}\n'
        'key,value\n'
        'emax0,4.6948072043451576\n'
        'se,0.064292680881859202\n'
        'gaussian_cap,6.9191702846382137\n',
    ),
    'bounds-averaging': (
        'bounds --prop averaging --n 100 --K 10 --delta 0.2 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'bounds-maxtest': (
        'bounds --prop maxtest --emax0 2.0 --K 49 --delta 0.2 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'bounds-universal': (
        'bounds --prop universal --K 8 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'bounds-pairs': (
        'bounds --prop pairs --mgf 1.2 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'bounds-symmetric': (
        'bounds --prop symmetric --n 45 --K 5 --delta 0.3 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'bounds-negass': (
        'bounds --prop negass --n 25 --K 5 --delta 0.5 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'bounds-cliques': (
        'bounds --prop cliques --m 63 --k 4 --delta 0.2 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'bounds-random-subclass-none': (
        'bounds --prop random-subclass --K 8 --M 20 --t 4.0 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'bounds-random-subclass': (
        'bounds --prop random-subclass --K 10 --M 160 --t 2.0 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'bounds-vc-cover': (
        'bounds --prop vc-cover --n 100 --V 2 --t 1.5 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'bounds-dudley': (
        'bounds --prop dudley --class ksets --n 12 --K 3 --constant 1 --seed 1',
        '#schema=combidetect.bound.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'bounds-type1-cover': (
        'bounds --prop type1-cover --class stars --m 6 --delta 0.1 --trials 300 --seed 43',
        '#schema=combidetect.bound.v1\n'
        '#version=0.4.0\n'
        '#config={"class":{"family":"stars","m":6},"delta":0.1,"seed":43,"trials":300}\n'
        'key,value\n'
        'name,type1-cover\n'
        'direction,mu_threshold_for_risk_le_delta\n'
        'value,5.3691017792212037\n'
        'degenerate,False\n'
        'extras.controls,type1 only\n'
        'extras.cover_size,6\n'
        'extras.emax_cover,2.4760978378290601\n'
        'extras.emax_cover_se,0.087676924471075141\n'
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
        '    "emax_cover": 2.47609783782906,\n'
        '    "emax_cover_se": 0.08767692447107514,\n'
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
        '  "value": 5.369101779221204,\n'
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'overlap-stars-exact': (
        'overlap --class stars --m 6 --mu 0.8 --seed 47',
        '#schema=combidetect.overlap.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'overlap-ksets-mc': (
        'overlap --class ksets --n 10 --K 3 --mu 0.7 --pairs 500 --seed 53',
        '#schema=combidetect.overlap.v1\n'
        '#version=0.4.0\n'
        '#config={"K":3,"class":"ksets","command":"overlap","mu":0.7,"n":10,"pairs":500,"seed":53}\n'
        'key,value\n'
        'mgf,1.6892485661808119\n'
        'mgf_se,0.02720276258322327\n'
        'exact,False\n'
        'risk_lower_bound,0.58489502346369904\n',
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
        '  "mgf": 1.6892485661808119,\n'
        '  "mgf_se": 0.02720276258322327,\n'
        '  "risk_lower_bound": 0.584895023463699,\n'
        '  "schema": "combidetect.overlap.v1",\n'
        '  "version": "0.4.0"\n'
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
        '  "emax0": 4.694807204345158,\n'
        '  "gaussian_cap": 6.919170284638214,\n'
        '  "schema": "combidetect.emax.v1",\n'
        '  "se": 0.0642926808818592,\n'
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'cover-ksets': (
        'cover --class ksets --n 6 --K 2 --radius 1.5 --seed 59',
        '#schema=combidetect.cover.v1\n'
        '#version=0.4.0\n'
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
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'nonmono': (
        'nonmono --K 3 --epsilon 0.8 --trials 300 --seed 61',
        '#schema=combidetect.nonmono.v1\n'
        '#version=0.4.0\n'
        '#config={"K":3,"command":"nonmono","epsilon":0.8,"seed":61,"trials":300}\n'
        'key,value\n'
        'mu,0.76261091318105356\n'
        'n,16\n'
        'gap,0.11666666666666659\n'
        'gap_se,0.051284608910579704\n'
        'side_condition_holds,False\n'
        'side_condition_lhs,0.76261091318105356\n'
        'side_condition_rhs,1.5631512887959418\n'
        'risk_disjoint.type1,0.28666666666666668\n'
        'risk_disjoint.se1,0.02610803764417444\n'
        'risk_disjoint.type2,0.31666666666666665\n'
        'risk_disjoint.se2,0.026856959922826266\n'
        'risk_disjoint.total,0.60333333333333328\n'
        'risk_disjoint.se_total,0.037455652790011895\n'
        'risk_union.type1,0.25\n'
        'risk_union.se1,0.025000000000000001\n'
        'risk_union.type2,0.23666666666666666\n'
        'risk_union.se2,0.024539461794937253\n'
        'risk_union.total,0.48666666666666669\n'
        'risk_union.se_total,0.03503120302223698\n'
        'risk_witness_averaging.type1,0.25333333333333335\n'
        'risk_witness_averaging.se1,0.025110127807689838\n'
        'risk_witness_averaging.type2,0.27666666666666667\n'
        'risk_witness_averaging.se2,0.025827777180277709\n'
        'risk_witness_averaging.total,0.53000000000000003\n'
        'risk_witness_averaging.se_total,0.03602211255038483\n',
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
        '  "gap": 0.11666666666666659,\n'
        '  "gap_se": 0.051284608910579704,\n'
        '  "mu": 0.7626109131810536,\n'
        '  "n": 16,\n'
        '  "risk_disjoint_se1": 0.02610803764417444,\n'
        '  "risk_disjoint_se2": 0.026856959922826266,\n'
        '  "risk_disjoint_se_total": 0.037455652790011895,\n'
        '  "risk_disjoint_total": 0.6033333333333333,\n'
        '  "risk_disjoint_type1": 0.2866666666666667,\n'
        '  "risk_disjoint_type2": 0.31666666666666665,\n'
        '  "risk_union_se1": 0.025,\n'
        '  "risk_union_se2": 0.024539461794937253,\n'
        '  "risk_union_se_total": 0.03503120302223698,\n'
        '  "risk_union_total": 0.4866666666666667,\n'
        '  "risk_union_type1": 0.25,\n'
        '  "risk_union_type2": 0.23666666666666666,\n'
        '  "risk_witness_averaging_se1": 0.025110127807689838,\n'
        '  "risk_witness_averaging_se2": 0.02582777718027771,\n'
        '  "risk_witness_averaging_se_total": 0.03602211255038483,\n'
        '  "risk_witness_averaging_total": 0.53,\n'
        '  "risk_witness_averaging_type1": 0.25333333333333335,\n'
        '  "risk_witness_averaging_type2": 0.27666666666666667,\n'
        '  "schema": "combidetect.nonmono.v1",\n'
        '  "side_condition_holds": false,\n'
        '  "side_condition_lhs": 0.7626109131810536,\n'
        '  "side_condition_rhs": 1.5631512887959418,\n'
        '  "version": "0.4.0"\n'
        '}\n',
    ),
    'risk-cliques-optimal-chunks': (
        'risk --class cliques --m 12 --k 4 --test optimal --mu 0.6 --mu 1.2 --trials 2100 --seed 53',
        '#schema=combidetect.risk.v1\n'
        '#version=0.4.0\n'
        '#config={"class":"cliques","command":"risk","k":4,"m":12,"mu":[0.6,1.2],"seed":53,"test":"optimal","trials":2100}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.59999999999999998,0.3861904761904762,0.010624486369439442,0.41809523809523808,0.010763510004094838,0.80428571428571427,0.01512391676195866,2100\n'
        '1.2,0.24095238095238095,0.0093323383244898854,0.27857142857142858,0.0097826227799507059,0.5195238095238095,0.013520068308168903,2100\n',
    ),
    'risk-cliques-maximum': (
        'risk --class cliques --m 12 --k 4 --test maximum --mu 1.0 --mu 2.0 --trials 400 --seed 59',
        '#schema=combidetect.risk.v1\n'
        '#version=0.4.0\n'
        '#config={"class":"cliques","command":"risk","emax0":8.628713296362575,"k":4,"m":12,"mu":[1.0,2.0],"seed":59,"test":"maximum","trials":400}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.28249999999999997,0.022510761315424229,0.32500000000000001,0.023418742493993994,0.60749999999999993,0.032483409226865337,400\n'
        '2,0.0050000000000000001,0.0035266839949164713,0.20499999999999999,0.020185081124434453,0.20999999999999999,0.020490851617246172,400\n',
    ),
    'emax-cliques': (
        'emax --class cliques --m 12 --k 4 --trials 500 --seed 61',
        '#schema=combidetect.emax.v1\n'
        '#version=0.4.0\n'
        '#config={"class":"cliques","command":"emax","k":4,"m":12,"seed":61,"trials":500}\n'
        'key,value\n'
        'emax0,6.5971307950726912\n'
        'se,0.056141308971887002\n'
        'gaussian_cap,8.6287132963625748\n',
    ),
    'scan-trees-maximum-chunks': (
        'scan --class trees --m 12 --test maximum --mu-grid 0.5:2.0:3 --trials 1100 --seed 23',
        '#schema=combidetect.scan.v1\n'
        '#version=0.4.0\n'
        '#config={"class":"trees","command":"scan","emax0":23.381177535645207,"m":12,"mu_grid":"0.5:2.0:3","seed":23,"test":"maximum","trials":1100}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.5,0.71909090909090911,0.013551221801799376,0.12,0.0097979589711327131,0.83909090909090911,0.016722308821498385,1100\n'
        '1.25,0.08545454545454545,0.0084289579920923084,0.27909090909090911,0.013524360968056495,0.36454545454545456,0.015935986710171001,1100\n'
        '2,0.0027272727272727275,0.001572443006842249,0.20363636363636364,0.012141910701866952,0.20636363636363636,0.012243307253429456,1100\n'
        '#critical_mu=1.0359195402298851\n',
    ),
    'overlap-trees': (
        'overlap --class trees --m 7 --mu 0.8 --pairs 2000 --seed 29',
        '#schema=combidetect.overlap.v1\n'
        '#version=0.4.0\n'
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
        '#version=0.4.0\n'
        '#config={"class":"trees","command":"emax","m":7,"seed":31,"trials":1100}\n'
        'key,value\n'
        'emax0,6.5708852727370308\n'
        'se,0.054232461852576047\n'
        'gaussian_cap,10.805304666843911\n',
    ),
    'cover-trees': (
        'cover --class trees --m 6 --radius 2 --seed 1',
        '#schema=combidetect.cover.v1\n'
        '#version=0.4.0\n'
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


def test_nonmono_at_its_class_size_keeps_the_golden_bytes(capsys):
    # --cap reaches both optimum-risk estimates; the union class's 17 members fit
    command, expected = GOLDEN["nonmono"]
    assert run(capsys, command.split() + ["--cap", "17"]) == expected

"""numpy's seeded normal deviates, without importing ``numpy.random``.

``normal(seed, sigma, n)`` returns exactly the values of
``numpy.random.default_rng(seed).normal(0.0, sigma, n)``, as floats: the
seed is hashed into ``PCG64`` state as ``SeedSequence(seed)`` does, the
generator steps its 128-bit LCG and emits the XSL-RR output, and each
deviate comes from numpy's 256-level ziggurat (``random_standard_normal``),
its wedge and its ``log1p`` tail included.  The stream is fixed by this
module, not by the installed numpy's generator.

``numpy.random`` loads nine extension modules and raises a process's peak
memory by about 5 MB; the CLI draws a few dozen deviates per run.
"""

from __future__ import annotations

import binascii
import struct
from math import exp, log1p

_M32 = 0xFFFFFFFF
_M52 = 0x000FFFFFFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1

# SeedSequence's hash constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# the ziggurat's base-strip edge and its inverse
_R = 3.6541528853610087963519472518
_INV_R = 0.27366123732975827203338247596

# numpy's ziggurat tables (``ziggurat_constants.h``): ``ki_double``
# (uint64), then ``wi_double`` and ``fi_double`` (double), 256 entries each,
# little-endian.  They are numpy's rounded constants and cannot be
# recomputed from _R to the bit; these bytes were read out of numpy 2.4.6's
# compiled ``numpy.random._generator``.
_TABLES = struct.unpack("<256Q512d", binascii.a2b_base64(b"""
au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvv
DgCqRPoKRxkPABjL/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM
8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsHqZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5
GGf7sA8AxnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9DwBXbP9gMMAPAEiiNxCCwg8A
0VvieqbEDwAx7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8AmeyPTbXO
DwAwyR2/B9APAObE1k1G0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7A
idYPADLoyKlu1w8A6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8
W1z52w8AfZq5653cDwCdchiBO90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8A
QO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8ATLgoPFnhDwCZP7yMx+EPAKoc2+kx4g8AkRvahZji
DwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/rZ7pEOQPADR31EZn5A8AXAlM07rkDwAkldKu
C+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8AeNXGdXvmDwCqER5mvuYPAPL0
5VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8A
ZAiE3JPoDwC8zvBBx+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPp
DwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLqDwAslTKrWuoPABp01aaB6g8A8Bzel6fqDwAg2fOF
zOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A+oTi9HbrDwAUIOZflusPAHyd
z/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwPAJbxKf1b7A8A
9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8At5F/xP7s
DwAohTV3E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRX
g+0PAMgspAaU7Q8ABLeFK6TtDwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZ
kA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A4AaQVx7uDwAkZUtzKe4PALzkChU07g8A
PJu4PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGXWAtq7g8Aegc+bHHu
DwCCezJYeO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahR
mO4PAFxIEw6c7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6
BM6o7g8AOzPoS6nuDwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A
2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2roju
DwD9PX+Ogu4PAIi4p9577g8A/zf/m3TuDwBevanDbO4PAH4AnlJk7g8AiCijRVvuDwC2V06Z
Ue4PAM8GAEpH7g8AUCzhUzzuDwDYKuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqiCe4PAMxJ
4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8A
Nqg4HH/tDwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/s
DwC4tw4Q1OwPALRulQi37A8AwTAStpjsDwB4qQ0KeewPAP4xD/VX7A8AYsmGZjXsDwA1s7RM
EewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKFyeFv6w8Anh+t00LrDwBLLQuwE+sPAOkC
Glni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/WxekPAKRHqTuE6Q8A
KEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgPAMAzgkir5w8ApWofdUzn
DwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/
+eMPAJyx7jVd4w8A/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCqcSuwgt8PAKr+
fsWH3g8A/TvGCXXdDwATvynlRtwPAIICLvj42g8Adbqy4YXZDwAEz0jv5tcPAAtlva0T1g8A
EvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u0scPAO0iHi8rww8AOrjAgWW9
DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oaDwB52RV4
O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRy
dFovrJ08w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI8
9ZFXwD88ozwvsaLBnr2jPFWb/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzEC
pjw9fKNh0mumPHAFAJKi0qY8pvhG09o2pzx3KrMQrZinPEP1Rq1F+Kc8dwpDU8xVqDyadnue
ZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdiqjwwFhBurbSqPJxs
E22xBas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8
SLeADp8erTwQH+QpnWetPMO4IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJ
rjwmYvCE5w2vPIj22FT2Ua88rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae
6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyEfa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4P
MQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqnibE8iG3uURuosTzLKvj4ZsaxPC7U4JOL5LE8
n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRbsjx/0x1mKnmyPBvXGceBlrI82i64Yruz
sjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiezPKFeJnBERLM81VLKuuJgszxqWAW+
an2zPGSysm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8dJ7gceUKtDxddKYt+ya0PKQw
POgAQ7Q8XcfKc/detDw2w2ae33q0PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8
YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndYtTx4X1UOAHS1PBSFDsaBj7U8WRskI/2q
tTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8Cya3BIFPtjxylslX
4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3Jw+3PMYU
aVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8
595zjNbqtzwf6oakZwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQ
uDxDwAWSjqy4PJwMoatlyLg8J2pEUUnkuDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5
YlS5PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8EXRvK+zhuTxK0vomcv65PJI2
+TkMG7o8W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71Ws14yLo8
NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSX
uzxuJYXba7W7PKLALmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wI
Zmy8PBem6+Bmi7w8q6I2vY+qvDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfG
MxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb48
9kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqnEHYj2b48qewBYQj8
vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjB
Wfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcu
Y4+YgsA8VKLoCJeWwDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8
QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqa
wTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHMBJ28E8I87tNvekctwjwknKyk
RUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uWMdTQwjz1eKmxDe7CPO6u
VtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8
dfRgqtvywzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXj
xDxBrOlTnxDFPEJ+OlIRQMU8G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kWxjzqagB7
zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMGCVaVecc8jM7W9C3Uxzw08ikFAznIPBR8
qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmCtDvNPAAAAAAAAPA/
h/B5yWpE7z8VqWxbVLfuP3fwJ+ARP+4/ld4Ep2/T7T/yvFcGknDtP9wZoXhJFO0/6y2nqDO9
7D9/eKnOXmrsP+q67tkcG+w/gtzhTuvO6z9S9Y86ZYXrPxDdNII6Pus/ouhsPyr56j8EJXrx
/rXqP+HJUNWLdOo/D6/1/ao06j/YH2XuO/bpP4EGJI0iuek/wXphV0Z96T9HehvCkULpP09x
Mb3xCOk/qArmT1XQ6D8C37pIrZjoP6y8N/zrYeg/bs9WDwUs6D/L4iBL7fbnP1honHeawuc/
1bCgPAOP5z9W2HAHH1znPxJtP/TlKec/7nrqulD45j+JWmOeWMfmPyo7UV73luY/I+OSKidn
5j8YDFWY4jfmP2UmgJgkCeY/av9Kb+ja5T+JXMisKa3lP4+NTCbkf+U/Rp6N8BNT5T/VbGVa
tSblP2e2IOjE+uQ/wE5JTz/P5D94UtxyIaTkPxJQ319oeeQ/eTZJShFP5D/jXzWKGSXkP4Jb
WJl+++M/ozGvED7S4z8OzWKmVanjP9UA2ivDgOM/6VD1i4RY4z81OnDJlzDjP+84ZP36COM/
7jvqVazh4j9KldcUqrriPxXNk47yk+I/7QQFKYRt4j+E25BaXUfiP/L3L6l8IeI/IJaSqeD7
4T9pmVT+h9bhPxHRP1dxseE/UDybcJuM4T/aOYYSBWjhP5ypXhCtQ+E/OB8xSJIf4T8TWTKi
s/vgP6BCQRAQ2OA/rtlwjaa04D+BXZkddpHgPzY88Mx9buA/Lj+mr7xL4D8qgovhMSngP8TK
uIXcBuA/ob17jHfJ3z/KAKmnnYXfP/N6L8spQt8/lY9+cRr/3j9UH70gbrzeP8XDTmojet4/
hZtf6jg43j8JOnZHrfbdP7FWCzJ/td0/M94mZK103T+AEAKhNjTdP21brrQZ9Nw/SKjAc1W0
3D/H1wC76HTcP7gsHW/SNdw/F2phfBH32z+RbXHWpLjbPxsTB3iLets/yjGzYsQ82z9ShaGe
Tv/aP55aXzopwto/gNikSlOF2j9NwCDqy0jaPz6ERjmSDNo/35MeXqXQ2T/GwBiEBJXZP5Of
4NuuWdk/F8szm6Me2T8V8bn84ePYP4iR3j9pqdg/tlqsqDhv2D/ZDap/TzXYPxHZuBGt+9c/
sBT0r1DC1z/rUpKvOYnXP+2xx2lnUNc/TGGpO9kX1z+qTBKGjt/WPyHeiK2Gp9Y/4sslGsFv
1j8V5Xs3PTjWP8jSgHT6ANY/RMJ2Q/jJ1T++7tYZNpPVPwABPXCzXNU/7TtTwm8m1T+Sbb+O
avDUP6KcEFejutQ/1GqtnxmF1D/+JMPvzE/UPxl6NdG8GtQ/29KO0Ojl0z+uQ/F8ULHTP3kT
CGjzfNM/ntH5JdFI0z8v9lpN6RTTP2YHIXc74dI/3T+WPset0j8esU1BjHrSP4neFx+KR9I/
nsz3ecAU0j8WgRj2LuLRP1DwwjnVr9E/6FRU7bJ90T9n7jS7x0vRPyMkz08TGtE/xAmHWZXo
0D/aQrKITbfQPzZDkI87htA/2elCIl9V0D9+dMf2tyTQP8WT34mL6M8/NTK4jBCIzz/SmOls
/ifPP0ScyaRUyM4/3TwoshJpzj+EcUUWOArOPwqQx1XEq80/T1Gy+LZNzT/Mb16KD/DMP1Pf
cZnNksw/R53Yt/A1zD+hGL56eNnLP6oxh3pkfcs/OtHMUrQhyz8HGFeiZ8bKP34mGQt+a8o/
PX4tMvcQyj9a/tK/0rbJPyd8al8QXck/afp0v68DyT9bgZKRsKrIPziagYoSUsg/dXEfYtX5
xz8jo2jT+KHHP6a1epx8Ssc/FkeWfmDzxj9c8iE+pJzGP5zxraJHRsY/+YP4dkrwxT9sHfOI
rJrFPzVoyKltRcU/wR/jrY3wxD8tzvVsDJzEP9V1A8LpR8Q/rjFpiyX0wz/u1+iqv6DDP4ir
tAW4TcM/ZSp8hA77wj8aB3oTw6jCP7deg6LVVsI/NDwYJUYFwj9CfXWSFLTBP2MtqOVAY8E/
uW6iHcsSwT+6CVI9s8LAP4W/uEv5csA/Kn0GVJ0jwD8sImvLPqm/PxwOUin/C78/S6Wa8ntv
vj+P6HZhtdO9P+WRvbmrOL0/CnQ7SV+evD8VEAto0AS8PzPi8nj/a7s/M/bK6ezTuj+GYuoz
mTy6PxlbndwEprk/q6CkdTAQuT9SKL+dHHu4P9bvPgHK5rc/dhGqWjlTtz9MSmlza8C2PxhN
hSRhLrY/pGZ0VxudtT+uK/oGmwy1PxMiG0DhfLQ/hpomI+/tsz9wPtnkxV+zPxExm89m0rI/
kQ3dRNNFsj99iZe+DLqxP50X8tAUL7E/JZYVLO2ksD+X5DCelxuwPzVubCssJq8/gVGyR9UW
rj9i8a3+LgmtPywqKA8+/as/cF84kAfzqj9jVSn5kOqpP6u1aCrg46g/Hievd/vepz9k0Jiz
6dumP9St8jyy2qU/XScRDl3bpD/L7pjO8t2jP5f0Peh84qI/vGofnwXpoT8RgJYumPGgP8Sl
GNeB+J8/dYyC2xoSnj8aCc2DGTCcP/jrIk6fUpo/CsEAttF5mD+Cvwv02qWWP2Sw+/Lq1pQ/
E16rjTgNkz8SMGA0A0mRP0ndck8qFY8/rI9PJ42kiz94pI0NBEGIP+DPGkKW64Q/ki+VKZKl
gT83aOz4YOF8P124DNmonnY//bGwAx+KcD9nsMFDn19lPw/3ubYFplQ/
"""))
_KI, _WI, _FI = _TABLES[:256], _TABLES[256:512], _TABLES[512:]


def _seed_pool(seed: int) -> list[int]:
    """``SeedSequence(seed).pool``: the seed's 32-bit words, hashed and
    mixed into four."""
    entropy = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _pcg64_start(seed: int) -> tuple[int, int]:
    """(state, increment) of ``PCG64(seed)``: four uint64 words of
    ``generate_state``, the first two the initial state, the last two the
    stream."""
    pool = _seed_pool(seed)
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    w64 = [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]
    inc = ((w64[2] << 64 | w64[3]) << 1 | 1) & _M128
    # PCG's srandom: step from 0, add the initial state, step again
    state = inc + (w64[0] << 64 | w64[1])
    return (state * _PCG_MULT + inc) & _M128, inc


def normal(seed: int, sigma: float, n: int) -> list[float]:
    """The first ``n`` values of ``default_rng(seed).normal(0.0, sigma)``."""
    state, inc = _pcg64_start(seed)

    def next64() -> int:
        nonlocal state
        state = (state * _PCG_MULT + inc) & _M128
        word = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (word >> rot | word << (64 - rot)) & _M64

    def next_double() -> float:
        return (next64() >> 11) * (1.0 / 9007199254740992.0)

    def standard() -> float:
        while True:
            r = next64()
            idx = r & 0xFF
            rabs = r >> 9 & _M52
            x = rabs * _WI[idx]
            if r >> 8 & 1:
                x = -x
            if rabs < _KI[idx]:
                return x
            if idx == 0:
                # the tail beyond _R; 1 - U keeps log away from 0
                while True:
                    xx = -_INV_R * log1p(-next_double())
                    yy = -log1p(-next_double())
                    if yy + yy > xx * xx:
                        return -(_R + xx) if rabs >> 8 & 1 else _R + xx
            elif ((_FI[idx - 1] - _FI[idx]) * next_double() + _FI[idx]
                  < exp(-0.5 * x * x)):
                return x

    return [0.0 + sigma * standard() for _ in range(n)]

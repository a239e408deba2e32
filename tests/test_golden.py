"""Byte-for-byte CLI outputs recorded before the coefficient table refactor.

Each command's standard output is hashed with sha256 and kept with its exit
code.  The commands cover every cover-space class at a small genus and at
g = 200, both verification modes (with a user slope, a cell with no
divisor and a cell outside the coarse range), the full scan rectangle and an
odd-genus divisor, each in every output format.  A second set, recorded
before the payload renderers moved out of the CLI, covers the oracle report,
the even and syzygy divisors, the classes on the genus-g and genus-0 spaces
and a NoDivisor cell outside the coarse range.  A third set, recorded before
every built-in recipe went through one constructor, covers the conditional
third-Hilbert divisor.  A refactor of the formulas or renderers behind them
must leave all of these bytes unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from hurwitzdiv.cli import main

GOLDEN = {
    "classes hodge --g 4 --k 4 --format json":
        (0, "26819a80fa18972a8cae9fb0f87454bcf567e5b91e27faf59e8b10f8e0128fde"),
    "classes hodge --g 4 --k 4 --format csv":
        (0, "1d019cf6777947a2677f701efe21485bcd12cd22d652bda1607a72064c85fa7e"),
    "classes hodge --g 4 --k 4 --format text":
        (0, "077c1e01d1454dcd3f085ddcbaa5f40d69c6a5742534f4933e34366074d5b020"),
    "classes hodge --g 200 --k 6 --format json":
        (0, "a6c3158ae970590fc527c7ad1ce8e7bc85e4d5c155ef1b4d578b434582fe55f6"),
    "classes hodge --g 200 --k 6 --format csv":
        (0, "6eaa609f4e99a949e2d779f9115dcf68e5460678f3718820b5edb512826faca4"),
    "classes hodge --g 200 --k 6 --format text":
        (0, "2e8ccb6360d54b177f91d4cb3695200eccb40b6c733fec35453a93859059ec4c"),
    "classes canonical-stack --g 4 --k 4 --format json":
        (0, "c71431b7c504ce5a72ed747b16cd3d48db93f18099d55943d041cfefbc66d4ab"),
    "classes canonical-stack --g 4 --k 4 --format csv":
        (0, "f331a248f8a3782a07a04049a2c9e6596b46e90975c5bc59ab4f3c841358e3e7"),
    "classes canonical-stack --g 4 --k 4 --format text":
        (0, "7dd92c57402a5870cafda3cfbbc50ff9dd716b80ead35977ea89a66672706f33"),
    "classes canonical-stack --g 200 --k 6 --format json":
        (0, "eb20a48c1a4e8081233078e88be035681d7fbf8973c588b923758c8d23ae2561"),
    "classes canonical-stack --g 200 --k 6 --format csv":
        (0, "195f13e874961232270cb1f91a986552fd4e72b74014bb964825ec16ce442f2c"),
    "classes canonical-stack --g 200 --k 6 --format text":
        (0, "ff40ffcd57687faafa3e67c54ec3c541068398cb9f7298689849dc71504b97de"),
    "classes canonical-coarse --g 4 --k 4 --format json":
        (0, "29e016c9ddc8e8bbc9f56012d6aaaf88f2329fcddd3f621f59aba3c381cd9712"),
    "classes canonical-coarse --g 4 --k 4 --format csv":
        (0, "f9c69804065d3375f3425319e04f9b21bc0097109b9933e73af2760182682c59"),
    "classes canonical-coarse --g 4 --k 4 --format text":
        (0, "beed7a6bfb12c5b3dff22582fe5e023320d144f0c68efb441826c7295fa3e134"),
    "classes canonical-coarse --g 200 --k 6 --format json":
        (0, "d350befe9fc1911c08eb7c2fef01bf9f14a19540083c94642cc4b013874215fa"),
    "classes canonical-coarse --g 200 --k 6 --format csv":
        (0, "c41df543d9e1965490102212902b034127c3332f536ac87aede7d8cdb0c91f8c"),
    "classes canonical-coarse --g 200 --k 6 --format text":
        (0, "216c0eeb31f4baa2cbc2c1965a5fd72174196163e2229464f04f66f4e9f2bad6"),
    "classes branch-pullback --g 4 --k 4 --i 3 --format json":
        (0, "0ed210acb7c2a6a04bd9a98ea332a2d8a1e8a4fbdbe0a4917502887ecc001e5c"),
    "classes branch-pullback --g 4 --k 4 --i 3 --format csv":
        (0, "54d425c11250cba1edb57339b6f9e0015d44fb9f9ef7813be06fb4914d0a2def"),
    "classes branch-pullback --g 4 --k 4 --i 3 --format text":
        (0, "50d6d824d08a3aab37d08127c3bc128b6fa403a423f4e96207a157f8f176d480"),
    "classes branch-pullback --g 200 --k 6 --i 57 --format json":
        (0, "309fa939eae7ba67564df6f0c367bb0a66cdcdfa23525a7e3d01fd208acb9887"),
    "classes branch-pullback --g 200 --k 6 --i 57 --format csv":
        (0, "c89e4b76a94efdc9bab4db9ea51985d18835d79ffd4462f157f0c3cbd37401ff"),
    "classes branch-pullback --g 200 --k 6 --i 57 --format text":
        (0, "0d801067f4efec8dfec02167ad75acf4fb94da81e69857e933168c8bc2196eab"),
    "verify stack --g 8 --k 3 --format json":
        (0, "c0bcac52faa6e30964c29a34d9a62a86145af505729cd8db278685fe43b48c53"),
    "verify stack --g 8 --k 3 --format csv":
        (0, "c04f317864f536b4fe85a94c9bdf37bb2ab2033679449b201b7b6fd5f0b46ab5"),
    "verify stack --g 8 --k 3 --format text":
        (0, "8c22b9e07f992e60633df0664c87b6c17637d8a6c90e353ceca4509c08a85278"),
    "verify stack --g 15 --k 4 --format json":
        (0, "4f4054bc149d1dd27ef3ae082161ea408f2d65927deba79ab195ec4c501112c7"),
    "verify stack --g 15 --k 4 --format csv":
        (0, "24fdbb4a2f8d086d83025d12836204940dbe2239a384fdc02b082712bb2bb356"),
    "verify stack --g 15 --k 4 --format text":
        (0, "6fe491d395e618e7f0812e2cc841aa93b3d018d753bd4232000e2ce053fa941d"),
    "verify stack --g 200 --k 10 --format json":
        (0, "5a07b17dcc9d66940452cd0a858da74b34f8f10c89a30cce7d2e35843adabe5c"),
    "verify stack --g 200 --k 10 --format csv":
        (0, "cd8b107409802c57fd344a935641e2db4aebde544504adfdf509ba0d18fdde7b"),
    "verify stack --g 200 --k 10 --format text":
        (0, "ba3f521afc29db2e3a21b4d98834771ee89bb82ee1e502420f15ebcbfc8c4047"),
    "verify coarse --g 8 --k 3 --format json":
        (0, "1314f8161e59138403c707b2bb2005f923728bff964734e68721f34e07f25acc"),
    "verify coarse --g 8 --k 3 --format csv":
        (0, "246945989930b92fbd9b0c101e7c54671fd80a4150d40af0ade3bb0e160446f2"),
    "verify coarse --g 8 --k 3 --format text":
        (0, "c889a043578d05cfacc17b5db6765abc7c75acf2ed631dc532f3a7001be715bf"),
    "verify coarse --g 16 --k 9 --format json":
        (0, "d8fc897d28ab5242d85b966e2670eaacde759f077e6bd33197f80a48973e0b0a"),
    "verify coarse --g 16 --k 9 --format csv":
        (0, "05aad2c88508a0fdd037abc378b166a78c1905f59a19ce1a85beae80aa4898ba"),
    "verify coarse --g 16 --k 9 --format text":
        (0, "bcb152c02658ac031f8cc234b35e2ec5253300ed744762ba72c7fd0a112a294b"),
    "verify coarse --g 200 --k 10 --format json":
        (0, "7aedcc3a9e0345c40c18966f70ba5973b8a432ee38472c8c371822ef6ae4f02e"),
    "verify coarse --g 200 --k 10 --format csv":
        (0, "107986f26d8ac5f7bb3ecebeb0d4af8d63869c3015f83d13fc0662e59bd3a205"),
    "verify coarse --g 200 --k 10 --format text":
        (0, "e17ddaae4ec10f0d8d219ebe12ffcdf9ccc0d7aaa787e7e509d5608d86b40e4e"),
    "verify stack --g 10 --k 5 --slope 15/2 --assume-avoidance --format json":
        (0, "a08320e811a81da46c1a1f18befc838c349eae14469a1f9be010a68a8a1e3aca"),
    "verify stack --g 10 --k 5 --slope 15/2 --assume-avoidance --format csv":
        (0, "2e77119ca8f82bd249ae4c6500143f97dd9a6fc7bf6ad0f0765ae20a27bc714e"),
    "verify stack --g 10 --k 5 --slope 15/2 --assume-avoidance --format text":
        (0, "148a404a6b27b95e02e8072ba27bae1c31c9b00f008e36a495c5d53a451826ad"),
    "verify coarse --g 12 --k 4 --slope 31/4 --assume-avoidance --format json":
        (0, "837c47a0f579020f2f986223bfd7795dd13bf31c691351b13b3343e35cb9d437"),
    "verify coarse --g 12 --k 4 --slope 31/4 --assume-avoidance --format csv":
        (0, "c9c55c8afacd9f09cc2584e37b973d38aecef1e3e02b1ef412f7f9b6efc6579d"),
    "verify coarse --g 12 --k 4 --slope 31/4 --assume-avoidance --format text":
        (0, "543850a4d7b34554529676a74382b288af350fc9c64119555145ba67e89af5fd"),
    "verify stack --g 7 --k 3 --format json":
        (1, "a3bc937c50c841cd5a03efd0e0a0c5f1c80e38c3de61f7ddc62b42f6dfa9aae5"),
    "verify stack --g 7 --k 3 --format csv":
        (1, "ac2b27ece5c08c5949119c824694b6288e0d368d210284ba643003b3eb3e6871"),
    "verify stack --g 7 --k 3 --format text":
        (1, "ad4351b631fc0c0e79ccb1d06e478463e208a66f72bd3249ff9b8ea38016534f"),
    "verify coarse --g 9 --k 3 --format json":
        (1, "8f086a32990d2a212e742995a83c57d94f2c903642d58c3e98449446f748d636"),
    "verify coarse --g 9 --k 3 --format csv":
        (1, "ac2b27ece5c08c5949119c824694b6288e0d368d210284ba643003b3eb3e6871"),
    "verify coarse --g 9 --k 3 --format text":
        (1, "c84fb5c22c60514bf1a5b7d6ae0be3708b48924cb58ea6dc24e5c561bc60cc43"),
    "verify coarse --g 8 --k 6 --format json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify coarse --g 8 --k 6 --format csv":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify coarse --g 8 --k 6 --format text":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scan --k 3 10 --g 6 60 --format json":
        (0, "3acaf577dc9b739bc7332d8bb01ebf10766cd6498bed70eb0ae06227fb6139bb"),
    "scan --k 3 10 --g 6 60 --format csv":
        (0, "fc668adc660ee11cfb2468478cb992abb9c842abb7ab7e76ea607daaffb03b6c"),
    "scan --k 3 10 --g 6 60 --format text":
        (0, "b1984c76a205d0bac36057e04ac29bd2fa5dff16b0e10a5fc0019efedf07f3e8"),
    "divisor odd --g 15 --format json":
        (0, "c2c032a7817b77fcf586cda054d9120b3fae88f53827653709b58c1d789187e2"),
    "divisor odd --g 15 --format csv":
        (0, "78d667e2b862f7bb172cf98e3a93c8d857aa19765e334deed461b95885447781"),
    "divisor odd --g 15 --format text":
        (0, "3724f0e1ef74038ba552dd941d11e3e95e2ae8a7a6c2d7ba3d83993440f05fcc"),
    "oracle --k 5 --mu 3,2 --i 5 --format json":
        (0, "3e25ef58629cde419b2ffc1dd9ffc1e09f00597984aab348beefc768cd327781"),
    "oracle --k 5 --mu 3,2 --i 5 --format csv":
        (0, "00426e7f857a0ead1176b9a6110db57d1d26e71e719c5c3b8b986d12adbd6511"),
    "oracle --k 5 --mu 3,2 --i 5 --format text":
        (0, "bf31befc1d142deba0dbacb094628f323df83f1bff3279f96db9fac571d31880"),
    "oracle --k 5 --mu 5 --i 3 --format json":
        (0, "5d37d5dca0ddd7395032638cee1db1c83a14a247317756b6a49436c7b5ef983f"),
    "oracle --k 5 --mu 5 --i 3 --format csv":
        (0, "0539b1f516ac6fbdd824cacee568a4261d67e62939e0c7c219d3b44f2a95130c"),
    "oracle --k 5 --mu 5 --i 3 --format text":
        (0, "8ebeed754de0bb31a524c7ccff1eeeeee77a7d4404e6ec6ad11dc807c13d263e"),
    "oracle --k 6 --mu 1,1,1,1,1,1 --i 2 --format json":
        (0, "c5ce811ab243a0083a0017a79a1c1f2e09c715a3632f6f3413a8e34322bdf56f"),
    "oracle --k 6 --mu 1,1,1,1,1,1 --i 2 --format csv":
        (0, "0b371d200ec82a71c773b5b29f5fb73e348910e8e02cf5625180922fa6d1d95f"),
    "oracle --k 6 --mu 1,1,1,1,1,1 --i 2 --format text":
        (0, "a0ab5d489e5aa805f7b8dc77e4685c7546bb3cb2beed3f23bcbc04d8c115b72d"),
    "divisor even --g 8 --format json":
        (0, "4a06b49c84fcbc01f678230308ce434eb01807871a69266633d55b3eae2e453d"),
    "divisor even --g 8 --format csv":
        (0, "a5244dd43588cdcbd829f262ec7fd644f706c7844810a65208e79f89b4813f8b"),
    "divisor even --g 8 --format text":
        (0, "d00ec37de1a4e1fa30e11a4f9cf3046ef24250ae2a35400bf70eed8dd6b1b7f8"),
    "divisor syzygy-g7 --format json":
        (0, "654782b7e9e1537cd35288df0d32a3b915ad82a7e176b7c747991ab84e5b6b93"),
    "divisor syzygy-g7 --format csv":
        (0, "6226e348650639a30ab3786ea97212e45f1b5f0e25d4fa28b41354ceb9970aa2"),
    "divisor syzygy-g7 --format text":
        (0, "fab53dc503ae25a833451a556bdb230d92085097caac14ecdb37391b6826c00f"),
    "classes weierstrass --g 5 --format json":
        (0, "f5278135c0c7f47c60afa6d995a38a8cf2d9ec187ce6887eab9968eb3f60b1a0"),
    "classes weierstrass --g 5 --format csv":
        (0, "3a6182b8bd2c4e7dbc50f18b7a134f440f307471e0dce31f6ace1e2fea5e3eb0"),
    "classes weierstrass --g 5 --format text":
        (0, "e5135ad927a44d824f38bccba84db736e993e6c6f28684261a8d700bac0f39c7"),
    "classes kappa1 --b 10 --format json":
        (0, "fa43a9aaa6d68b7f8d9b2d2f53a4c03376dc9c800505f196bd0fddfa8a6ffa19"),
    "classes kappa1 --b 10 --format csv":
        (0, "aaec8bda6bf757a08b4095e7de0b70c8d26fc57dc87707714135011798a0e536"),
    "classes kappa1 --b 10 --format text":
        (0, "2882457f79fc3a47279c303a99812cda00a78de237e0a94d0dc45ce93500cd9a"),
    "classes canonical-m0b --b 10 --format json":
        (0, "0aa6d85147281581272649e8903995ca7152476fc3b7fdd47bb6de63365e8fe5"),
    "classes canonical-m0b --b 10 --format csv":
        (0, "8819d61579a8b47f7ccc7a17b0e44921bdc66564dda5f302aede3d3cee9eaffb"),
    "classes canonical-m0b --b 10 --format text":
        (0, "15a7143bcec0f86f5fe64c4b2efb5adf1ec6e20a144eea80a309d0519b8d659c"),
    "verify coarse --g 4 --k 5 --format json":
        (1, "6f55991708a28971ce011b8bda4c6a508221fec7e6ec3165e05b3077d2db8124"),
    "verify coarse --g 4 --k 5 --format csv":
        (1, "ac2b27ece5c08c5949119c824694b6288e0d368d210284ba643003b3eb3e6871"),
    "verify coarse --g 4 --k 5 --format text":
        (1, "067227af43f21a07778a4c2af86170ba729e4a14eb23a21f14ad8f147d3d773d"),
    "verify stack --g 9 --k 3 --assume-remark --format json":
        (0, "f8b24e875c4ed9962371a53ce99aa82f0baa0821d2967cf690f53d4e9b3fd1e7"),
    "verify stack --g 9 --k 3 --assume-remark --format csv":
        (0, "1cd090411ff1f928c2bacfa0cb697246d248d7677c1a68fbbcc2947a1b1f9b5d"),
    "verify stack --g 9 --k 3 --assume-remark --format text":
        (0, "f50e8919937f76e2f7efcb607018c103f8a0949f0362c7e731b472ac2d2653e8"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_output_matches_golden(command, capsys):
    code = main(command.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[command]
